// Package dsp implements the audio feature frontend of the paper's keyword
// spotter (§VI): "Features are computed using a 256 bin fixed point FFT
// across 30 ms windows (20 ms shift), averaging 6 neighboring bins,
// resulting in 43 values per frame. The 49 frames for each recording are
// concatenated, forming a fixed 49 × 43 compressed spectrogram
// ('fingerprint') per utterance."
//
// The package provides a fixed-point radix-2 FFT (the kind that runs on
// microcontrollers without an FPU), a real-input variant that packs the
// samples into a half-size complex FFT plus a split post-pass (the hot-path
// kernel — the audio frames are real, so half the butterflies of a full
// complex transform are wasted on a zero imaginary part), a float64
// reference FFT used to bound their error in tests, and the fingerprint
// extractor.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFTFloat computes the in-place radix-2 decimation-in-time FFT of the
// complex sequence (re, im). len(re) must be a power of two. It is the
// reference implementation for testing the fixed-point path.
func FFTFloat(re, im []float64) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: re/im length mismatch %d/%d", n, len(im))
	}
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT size %d not a power of two", n)
	}
	bitReverse(re, im)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				ang := step * float64(k)
				wr, wi := math.Cos(ang), math.Sin(ang)
				i, j := start+k, start+k+half
				tr := wr*re[j] - wi*im[j]
				ti := wr*im[j] + wi*re[j]
				re[j] = re[i] - tr
				im[j] = im[i] - ti
				re[i] += tr
				im[i] += ti
			}
		}
	}
	return nil
}

// bitReverse performs the in-place bit-reversal reorder shared by every FFT
// in this package; the element type only has to be swappable.
func bitReverse[T int32 | float64](re, im []T) {
	n := len(re)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// bitReversePerm is bitReverse driven by a precomputed permutation table, so
// the hot loop performs no bits.Reverse64 work. The swap targets are
// data-dependent (the permutation itself), so its bounds checks are
// irreducible; the function is kept out of line so they stay attributed here
// and its callers stay clean under make bce-check. The frontend never runs
// it: its windowed pack stores each sample pair at the bit-reversed slot
// directly (packWindowed).
//
//go:noinline
func bitReversePerm(re, im []int32, perm []int32) {
	for i, j := range perm {
		if int(j) > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// twiddle tables for the fixed-point FFTs, Q15, cached per size, along with
// the bit-reversal permutation of that size. The cache is a sync.Map so
// concurrent FFTs (one per pipeline worker) hit a lock-free read path;
// frontends additionally pin their tables at construction and bypass the
// cache entirely.
var twCache sync.Map // int → *twiddles

type twiddles struct {
	cos []int32 // Q15
	sin []int32 // Q15
	// perm[i] is the bit-reversed index of i, precomputed so the per-call
	// reorder is a table walk instead of bits.Reverse64 arithmetic.
	perm []int32
	// pairs[p] is the interleaved twiddle table of the p-th radix-2² pass
	// of fftStages, which fuses the butterfly stages of sizes 16<<2p and
	// 32<<2p. One sequential entry per butterfly index k carries all three
	// twiddles that index needs, so the pass reads one stride-1 stream
	// instead of three strided walks of the shared table.
	pairs [][]pairTw
	// lastStage is set when the stage count above the radix-8 pass is odd:
	// the final size-n stage then runs alone, on cos/sin directly.
	lastStage bool
}

// pairTw holds the twiddles of butterfly index k in one radix-2² pass over
// stage sizes s and 2s (h = s/2): W_s^k for the first stage, and W_{2s}^k
// and W_{2s}^{k+h} for the second.
type pairTw struct {
	c1, s1 int32
	c2, s2 int32
	c3, s3 int32
}

func computeTwiddles(n int) *twiddles {
	tw := &twiddles{cos: make([]int32, n/2), sin: make([]int32, n/2), perm: make([]int32, n)}
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw.cos[k] = int32(math.Round(math.Cos(ang) * 32767))
		tw.sin[k] = int32(math.Round(math.Sin(ang) * 32767))
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range tw.perm {
		tw.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	size := 16
	for ; 2*size <= n; size <<= 2 {
		h, stride := size/2, n/size
		tp := make([]pairTw, h)
		for k := range tp {
			tp[k] = pairTw{
				c1: tw.cos[k*stride], s1: tw.sin[k*stride],
				c2: tw.cos[k*stride/2], s2: tw.sin[k*stride/2],
				c3: tw.cos[(k+h)*stride/2], s3: tw.sin[(k+h)*stride/2],
			}
		}
		tw.pairs = append(tw.pairs, tp)
	}
	tw.lastStage = size == n
	return tw
}

func twiddlesFor(n int) *twiddles {
	if v, ok := twCache.Load(n); ok {
		return v.(*twiddles)
	}
	v, _ := twCache.LoadOrStore(n, computeTwiddles(n))
	return v.(*twiddles)
}

// FFTFixed computes an in-place fixed-point radix-2 FFT. Inputs are Q15-ish
// int32 values (|x| ≤ 32767 recommended); every butterfly stage scales by
// 1/2 so intermediate values never overflow, for a total output scaling of
// 1/n relative to the mathematical DFT. This mirrors the scaling scheme of
// the CMSIS/KissFFT fixed-point transforms that TFLM's micro_features use.
func FFTFixed(re, im []int32) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("dsp: re/im length mismatch %d/%d", n, len(im))
	}
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT size %d not a power of two", n)
	}
	fftFixed(re, im, twiddlesFor(n))
	return nil
}

// fftFixed is FFTFixed over natural-order input with a caller-provided
// twiddle table: the bit-reversal permutation, then the butterfly stages.
func fftFixed(re, im []int32, tw *twiddles) {
	if len(im) < len(re) {
		panic("dsp: fftFixed im shorter than re")
	}
	bitReversePerm(re, im, tw.perm)
	fftStages(re, im, tw)
}

// Size-8 stage twiddles W_8^k = e^{-2πik/8} in Q15, k = 0..3: the values
// computeTwiddles yields for every n ≥ 8 at index k·n/8
// (TestRadix8TwiddleConstants), so the radix-8 pass multiplies by
// constants and the k = 0 and k = 2 terms fold their zero products away.
const (
	w8c0, w8s0 = 32767, 0
	w8c1, w8s1 = 23170, -23170
	w8c2, w8s2 = 0, -32767
	w8c3, w8s3 = -23170, -23170
)

// butterfly is the radix-2 decimation-in-time butterfly every stage of the
// fixed-point FFT applies: the upper input b is rotated by the Q15 twiddle
// w with rounding, and both outputs a ± w·b are scaled by 1/2 so
// magnitudes stay bounded. Passes differ only in which points they feed
// it and in how many stages they keep in registers; the integer sequence
// per butterfly is this one, so every pass order is bit-identical.
func butterfly(ar, ai, br, bi, wr, wi int32) (xr, xi, yr, yi int32) {
	tr := int32((int64(wr)*int64(br)-int64(wi)*int64(bi)+16384)>>15) >> 1
	ti := int32((int64(wr)*int64(bi)+int64(wi)*int64(br)+16384)>>15) >> 1
	ar >>= 1
	ai >>= 1
	return ar + tr, ai + ti, ar - tr, ai - ti
}

// butterfly1 is butterfly for the twiddle 1, and butterflyNegI for -i:
// both are exact in any fixed-point format, so the first two stages skip
// the Q15 rounding multiplies (and their 1-LSB error).
func butterfly1(ar, ai, br, bi int32) (xr, xi, yr, yi int32) {
	ar, ai, br, bi = ar>>1, ai>>1, br>>1, bi>>1
	return ar + br, ai + bi, ar - br, ai - bi
}

func butterflyNegI(ar, ai, br, bi int32) (xr, xi, yr, yi int32) {
	ar, ai, br, bi = ar>>1, ai>>1, br>>1, bi>>1
	return ar + bi, ai - br, ar - bi, ai + br
}

// fftStages runs every butterfly stage of the radix-2 FFT over re/im
// (len n, a power of two, im at least as long) already in bit-reversed
// order. It makes three kinds of memory pass: the three smallest stages as
// one radix-8 pass held in registers, then the remaining stages two at a
// time as radix-2² passes, then, when their count is odd, the size-n
// stage alone. The frontend packs its samples straight into bit-reversed
// order and calls this directly; FFTFixed and rfftFixed permute first.
func fftStages(re, im []int32, tw *twiddles) {
	switch n := len(re); {
	case n >= 8:
		fftRadix8(re, im)
	case n == 4 && len(im) >= 4:
		r, i := (*[4]int32)(re), (*[4]int32)(im)
		r[0], i[0], r[1], i[1] = butterfly1(r[0], i[0], r[1], i[1])
		r[2], i[2], r[3], i[3] = butterfly1(r[2], i[2], r[3], i[3])
		r[0], i[0], r[2], i[2] = butterfly1(r[0], i[0], r[2], i[2])
		r[1], i[1], r[3], i[3] = butterflyNegI(r[1], i[1], r[3], i[3])
	case n == 2 && len(im) >= 2:
		re[0], im[0], re[1], im[1] = butterfly1(re[0], im[0], re[1], im[1])
	}
	for _, tp := range tw.pairs {
		fftPair(re, im, tp)
	}
	if tw.lastStage {
		fftLastStage(re, im, tw.cos, tw.sin)
	}
}

// fftRadix8 runs stages of size 2, 4 and 8 over each block of eight points
// in registers: one load and one store per point instead of three.
func fftRadix8(re, im []int32) {
	for len(re) >= 8 && len(im) >= 8 {
		r, i := (*[8]int32)(re), (*[8]int32)(im)
		r0, i0, r1, i1 := butterfly1(r[0], i[0], r[1], i[1])
		r2, i2, r3, i3 := butterfly1(r[2], i[2], r[3], i[3])
		r4, i4, r5, i5 := butterfly1(r[4], i[4], r[5], i[5])
		r6, i6, r7, i7 := butterfly1(r[6], i[6], r[7], i[7])
		r0, i0, r2, i2 = butterfly1(r0, i0, r2, i2)
		r1, i1, r3, i3 = butterflyNegI(r1, i1, r3, i3)
		r4, i4, r6, i6 = butterfly1(r4, i4, r6, i6)
		r5, i5, r7, i7 = butterflyNegI(r5, i5, r7, i7)
		r[0], i[0], r[4], i[4] = butterfly(r0, i0, r4, i4, w8c0, w8s0)
		r[1], i[1], r[5], i[5] = butterfly(r1, i1, r5, i5, w8c1, w8s1)
		r[2], i[2], r[6], i[6] = butterfly(r2, i2, r6, i6, w8c2, w8s2)
		r[3], i[3], r[7], i[7] = butterfly(r3, i3, r7, i7, w8c3, w8s3)
		re, im = re[8:], im[8:]
	}
}

// fftPair runs the two butterfly stages of sizes 2h and 4h (h = len(tp))
// as one radix-2² pass: each block of 4h points is cut into quarters q0..q3,
// and index k loads one point of each, applies the first stage to (q0, q1)
// and (q2, q3) and the second to (q0, q2) and (q1, q3), and stores them
// back. Every quarter is exactly h long, the length of tp, so the prove
// pass covers the whole sweep (make bce-check).
func fftPair(re, im []int32, tp []pairTw) {
	h := len(tp)
	for h > 0 && len(re) >= h && len(im) >= h {
		r0, i0 := re[:h], im[:h]
		re, im = re[h:], im[h:]
		if len(re) < h || len(im) < h {
			return
		}
		r1, i1 := re[:h], im[:h]
		re, im = re[h:], im[h:]
		if len(re) < h || len(im) < h {
			return
		}
		r2, i2 := re[:h], im[:h]
		re, im = re[h:], im[h:]
		if len(re) < h || len(im) < h {
			return
		}
		r3, i3 := re[:h], im[:h]
		re, im = re[h:], im[h:]
		for k := range tp {
			w := &tp[k]
			ar, ai, br, bi := butterfly(r0[k], i0[k], r1[k], i1[k], w.c1, w.s1)
			cr, ci, dr, di := butterfly(r2[k], i2[k], r3[k], i3[k], w.c1, w.s1)
			r0[k], i0[k], r2[k], i2[k] = butterfly(ar, ai, cr, ci, w.c2, w.s2)
			r1[k], i1[k], r3[k], i3[k] = butterfly(br, bi, dr, di, w.c3, w.s3)
		}
	}
}

// fftLastStage runs the size-n butterfly stage alone (h = len(cw) = n/2
// butterflies over the halves of re/im), with the twiddles W_n^k straight
// from the shared table.
func fftLastStage(re, im, cw, sw []int32) {
	h := len(cw)
	if len(sw) < h || len(re) < h || len(im) < h {
		return
	}
	sw = sw[:h]
	r0, i0 := re[:h], im[:h]
	re, im = re[h:], im[h:]
	if len(re) < h || len(im) < h {
		return
	}
	r1, i1 := re[:h], im[:h]
	for k, wr := range cw {
		r0[k], i0[k], r1[k], i1[k] = butterfly(r0[k], i0[k], r1[k], i1[k], wr, sw[k])
	}
}

// RFFTFixed computes spectrum bins 0..n/2-1 of the real sequence x
// (len n, a power of two ≥ 2) with the same 1/n output scaling as an
// n-point FFTFixed, writing into re/im (each at least n/2 long, resliced
// to exactly n/2). It packs x into an n/2-point complex FFT (even samples
// real, odd samples imaginary) and unzips the half-spectra in a split
// post-pass — about half the butterflies and twiddle loads of the full
// complex transform. Bin n/2 (the Nyquist bin) is not emitted; the
// frontend's NumBins ≤ n/2 bins never read it.
func RFFTFixed(x []int32, re, im []int32) error {
	n := len(x)
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: real-FFT size %d not a power of two ≥ 2", n)
	}
	m := n / 2
	if len(re) < m || len(im) < m {
		return fmt.Errorf("dsp: rfft output length %d/%d below %d", len(re), len(im), m)
	}
	re, im = re[:m], im[:m]
	for i := 0; i < m; i++ {
		re[i] = x[2*i]
		im[i] = x[2*i+1]
	}
	rfftFixed(re, im, twiddlesFor(m), twiddlesFor(n))
	return nil
}

// rfftFixed is the real-FFT core over already packed data: re/im hold the
// m = n/2 even/odd samples, half is the m-point twiddle table, full the
// n-point table whose first m entries supply the post-pass rotations. On
// return re/im hold spectrum bins 0..m-1 of the length-n real transform.
//
// Scaling scheme: the packed m-point fftFixed scales by 1/m; the split
// post-pass X[k] = (E[k] + W_n^k·O[k]) halves once more with rounding, for
// a total 1/n — bit-compatible in scale with the full-size FFTFixed path
// it replaces, so fingerprint features stay within the fixed-point
// tolerance documented in the frontend.
func rfftFixed(re, im []int32, half, full *twiddles) {
	m := len(re)
	if m == 0 || len(im) != m || len(full.cos) < m || len(full.sin) < m {
		panic("dsp: rfftFixed operand lengths")
	}
	im = im[:m]
	cos, sin := full.cos[:m], full.sin[:m]
	fftFixed(re, im, half)
	// Unzip pairs (k, m-k): both X[k] and X[m-k] are formed from Z[k] and
	// Z[m-k], so each pair is loaded once and written back in place.
	//   E[k] = (Z[k] + conj(Z[m-k]))/2   (spectrum of even samples)
	//   O[k] = (Z[k] - conj(Z[m-k]))/2i  (spectrum of odd samples)
	//   X[k] = E[k] + W_n^k·O[k],  W_n = e^{-2πi/n}
	// The /2 of E and O and the rotation are fused into one rounded >>17
	// (15 bits of Q15 plus the factor 4 from using doubled E2/O2 terms,
	// halved once more for the 1/n output scale). The dual k/j induction
	// with the explicit j < m condition (1 ≤ k < j < m) is what lets the
	// prove pass cover every access (make bce-check).
	const rnd = 1 << 16
	for k, j := 1, m-1; k < j && j < m; k, j = k+1, j-1 {
		zrk, zik := int64(re[k]), int64(im[k])
		zrj, zij := int64(re[j]), int64(im[j])
		er2 := zrk + zrj                       // 2·Re E[k]
		ei2 := zik - zij                       // 2·Im E[k]
		or2 := zik + zij                       // 2·Re O[k]
		oi2 := zrj - zrk                       // 2·Im O[k]
		cw, sw := int64(cos[k]), int64(sin[k]) // W_n^k in Q15
		p1 := cw*or2 - sw*oi2
		p2 := cw*oi2 + sw*or2
		re[k] = int32((er2<<15 + p1 + rnd) >> 17)
		im[k] = int32((ei2<<15 + p2 + rnd) >> 17)
		re[j] = int32((er2<<15 - p1 + rnd) >> 17)
		im[j] = int32((-ei2<<15 + p2 + rnd) >> 17)
	}
	// Self-paired bins. k = 0: X[0] = Re Z[0] + Im Z[0] (E and O are both
	// real there), halved for the output scale. k = m/2: W_n^{m/2} = -i, so
	// X[m/2] = Re Z[m/2] - i·Im Z[m/2], halved — both exact, no Q15 twiddle.
	zr0, zi0 := int64(re[0]), int64(im[0])
	re[0] = int32((zr0 + zi0 + 1) >> 1)
	im[0] = 0
	if h := m / 2; h > 0 && h < m {
		re[h] = int32((int64(re[h]) + 1) >> 1)
		im[h] = int32((-int64(im[h]) + 1) >> 1)
	}
}

// rfftPowerFixed is rfftFixed fused with the spectral power computation:
// instead of writing spectrum bins back into re/im, it writes pow[k] =
// Re(X[k])² + Im(X[k])² for every bin, squaring each unzipped value while it
// is still in registers. The arithmetic producing each Re/Im is kept in
// lockstep with rfftFixed term for term (TestRFFTPowerMatchesRFFT pins
// this), so the powers are bit-identical to squaring rfftFixed's output —
// the fusion only skips the spectrum store and re-load. Unlike rfftFixed,
// re/im arrive already in bit-reversed order (the frontend's windowed pack
// scatters them there), so it runs fftStages without a permutation pass;
// they are left holding the packed half-size FFT (scratch, not a spectrum).
func rfftPowerFixed(re, im []int32, half, full *twiddles, pow []uint64) {
	m := len(re)
	if m == 0 || len(im) != m || len(pow) < m || len(full.cos) < m || len(full.sin) < m {
		panic("dsp: rfftPowerFixed operand lengths")
	}
	im = im[:m]
	pow = pow[:m]
	cos, sin := full.cos[:m], full.sin[:m]
	fftStages(re, im, half)
	const rnd = 1 << 16
	for k, j := 1, m-1; k < j && j < m; k, j = k+1, j-1 {
		zrk, zik := int64(re[k]), int64(im[k])
		zrj, zij := int64(re[j]), int64(im[j])
		er2 := zrk + zrj
		ei2 := zik - zij
		or2 := zik + zij
		oi2 := zrj - zrk
		cw, sw := int64(cos[k]), int64(sin[k])
		p1 := cw*or2 - sw*oi2
		p2 := cw*oi2 + sw*or2
		xr := int64(int32((er2<<15 + p1 + rnd) >> 17))
		xi := int64(int32((ei2<<15 + p2 + rnd) >> 17))
		yr := int64(int32((er2<<15 - p1 + rnd) >> 17))
		yi := int64(int32((-ei2<<15 + p2 + rnd) >> 17))
		pow[k] = uint64(xr*xr + xi*xi)
		pow[j] = uint64(yr*yr + yi*yi)
	}
	zr0, zi0 := int64(re[0]), int64(im[0])
	x0 := int64(int32((zr0 + zi0 + 1) >> 1))
	pow[0] = uint64(x0 * x0)
	if h := m / 2; h > 0 && h < m {
		xr := int64(int32((int64(re[h]) + 1) >> 1))
		xi := int64(int32((-int64(im[h]) + 1) >> 1))
		pow[h] = uint64(xr*xr + xi*xi)
	}
}

// ButterflyCount returns the number of butterflies an n-point FFT executes,
// for cycle-cost accounting.
func ButterflyCount(n int) uint64 {
	if n <= 1 {
		return 0
	}
	return uint64(n/2) * uint64(bits.TrailingZeros(uint(n)))
}
