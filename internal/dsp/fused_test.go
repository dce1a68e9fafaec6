package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// TestRFFTPowerMatchesRFFT: the fused power post-pass must be bit-identical
// to running rfftFixed and squaring its spectrum — the fusion only skips the
// spectrum store/re-load, never the arithmetic. Randomized Q15-range inputs
// over every packed size the frontend could configure.
func TestRFFTPowerMatchesRFFT(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, m := range []int{2, 4, 8, 16, 64, 256, 512} {
		half, full := twiddlesFor(m), twiddlesFor(2*m)
		for trial := 0; trial < 20; trial++ {
			re := make([]int32, m)
			im := make([]int32, m)
			for i := range re {
				re[i] = int32(r.Intn(65535) - 32767)
				im[i] = int32(r.Intn(65535) - 32767)
			}
			re2 := append([]int32(nil), re...)
			im2 := append([]int32(nil), im...)
			rfftFixed(re2, im2, half, full)
			pow := make([]uint64, m)
			bitReversePerm(re, im, half.perm) // rfftPowerFixed takes bit-reversed input
			rfftPowerFixed(re, im, half, full, pow)
			for k := 0; k < m; k++ {
				xr, xi := int64(re2[k]), int64(im2[k])
				want := uint64(xr*xr + xi*xi)
				if pow[k] != want {
					t.Fatalf("m=%d trial=%d bin %d: fused power %d != squared spectrum %d",
						m, trial, k, pow[k], want)
				}
			}
		}
	}
}

// TestLogCompressFixedMatches: the integer threshold walk must equal the
// float reference on every input class — randomized values across all
// magnitudes, every threshold boundary ±1, and the extremes.
func TestLogCompressFixedMatches(t *testing.T) {
	check := func(p uint64) {
		t.Helper()
		if got, want := logCompressFixed(p), logCompress(p); got != want {
			t.Fatalf("logCompressFixed(%d) = %d, want %d", p, got, want)
		}
	}
	check(0)
	check(1)
	check(math.MaxUint64)
	for v := 0; v < 256; v++ {
		th := logThresholds[v]
		if th > 0 {
			check(th - 1)
		}
		check(th)
		if th < math.MaxUint64 {
			check(th + 1)
		}
	}
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20000; trial++ {
		check(r.Uint64() >> uint(r.Intn(64)))
	}
}

// unfusedFrame recomputes one analysis frame the pre-fusion way — window
// pack, rfftFixed spectrum, square/average in integers, float logCompress —
// as the reference for TestFrontendFusedEquivalence.
func unfusedFrame(f *Frontend, dst []uint8, samples []int16, start int) {
	cfg := f.cfg
	re := make([]int32, cfg.FFTSize/2)
	im := make([]int32, cfg.FFTSize/2)
	n := cfg.WindowSamples
	if rem := len(samples) - start; rem < n {
		n = rem
	}
	if n < 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		w := int32((int64(samples[start+i]) * int64(f.window[i]) / 2) >> 15)
		if i&1 == 0 {
			re[i>>1] = w
		} else {
			im[i>>1] = w
		}
	}
	rfftFixed(re, im, f.twHalf, f.twFull)
	for feat := range f.binLo {
		lo, hi := f.binLo[feat], f.binHi[feat]
		var acc uint64
		for k := lo; k < hi; k++ {
			xr, xi := int64(re[k]), int64(im[k])
			acc += uint64(xr*xr + xi*xi)
		}
		dst[feat] = logCompress(acc / uint64(hi-lo))
	}
}

// TestFrontendFusedEquivalence: the fused frontend hot path (rfftPowerFixed
// + logCompressFixed) must produce byte-identical fingerprints to the
// unfused pipeline it replaced, across randomized utterances including
// short (zero-padded) and empty input.
func TestFrontendFusedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	f, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	cfg := f.Config()
	features := cfg.NumFeatures()
	lengths := []int{0, 1, cfg.WindowSamples - 1, cfg.WindowSamples,
		cfg.UtteranceSamples() / 2, cfg.UtteranceSamples() - 1, cfg.UtteranceSamples()}
	for trial, n := range lengths {
		samples := make([]int16, n)
		for i := range samples {
			samples[i] = int16(r.Intn(65536) - 32768)
		}
		got := f.Extract(samples)
		want := make([]uint8, features)
		for frame := 0; frame < cfg.NumFrames; frame++ {
			unfusedFrame(f, want, samples, frame*cfg.StrideSamples)
			for feat := 0; feat < features; feat++ {
				if got[frame*features+feat] != want[feat] {
					t.Fatalf("len=%d trial=%d frame=%d feat=%d: fused %d != unfused %d",
						n, trial, frame, feat, got[frame*features+feat], want[feat])
				}
			}
		}
	}
}

// TestPackWindowedMatchesPermutedPack: the frontend's pack must leave the
// exact values of the natural-order windowed pack followed by the
// bit-reversal pass it replaced — down to the LSB, which the fingerprint
// bytes alone would not always show — for every frame length from empty to
// a full window, with full-range samples. Every other length uses rounding
// edge samples: x·w ≡ −1 (mod 2^16) for odd window values w, where the
// truncating /2 and a floor shift disagree on negative products.
func TestPackWindowedMatchesPermutedPack(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	f, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	m := len(f.re)
	for n := 0; n <= len(f.window); n++ {
		frame := make([]int16, n)
		for i := range frame {
			frame[i] = int16(r.Intn(65536) - 32768)
			if w := uint16(f.window[i]); n&1 == 1 && w&1 == 1 {
				inv := w // Newton iteration for w⁻¹ mod 2^16
				for range 4 {
					inv *= 2 - w*inv
				}
				frame[i] = int16(-inv)
			}
		}
		wantRe, wantIm := make([]int32, m), make([]int32, m)
		for i := range frame {
			v := int32((int64(frame[i]) * int64(f.window[i]) / 2) >> 15)
			if i&1 == 0 {
				wantRe[i>>1] = v
			} else {
				wantIm[i>>1] = v
			}
		}
		bitReversePerm(wantRe, wantIm, f.twHalf.perm)
		re, im := make([]int32, m), make([]int32, m)
		for i := range re {
			re[i], im[i] = -1, -1 // stale scratch must be overwritten
		}
		packWindowed(re, im, frame, f.window, f.twHalf.perm)
		for k := 0; k < m; k++ {
			if re[k] != wantRe[k] || im[k] != wantIm[k] {
				t.Fatalf("n=%d slot %d: packed (%d,%d), want (%d,%d)", n, k, re[k], im[k], wantRe[k], wantIm[k])
			}
		}
	}
}

// TestDivRecipExact: the reciprocal divide equals hardware division for
// every divisor a feature width can take and for dividends across all 64
// bits, including the extremes where the correction step decides.
func TestDivRecipExact(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	divisors := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 12, 255, 256, 1 << 20, math.MaxUint32, 1<<63 - 1, 1 << 63}
	for trial := 0; trial < 64; trial++ {
		divisors = append(divisors, 1+uint64(r.Intn(4096)))
	}
	for _, d := range divisors {
		recip := uint64(math.MaxUint64) / d
		xs := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - d}
		for trial := 0; trial < 2000; trial++ {
			xs = append(xs, r.Uint64()>>uint(r.Intn(64)))
		}
		for _, x := range xs {
			if got, want := divRecip(x, d, recip), x/d; got != want {
				t.Fatalf("divRecip(%d, %d) = %d, want %d", x, d, got, want)
			}
		}
	}
}
