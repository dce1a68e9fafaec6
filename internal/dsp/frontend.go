package dsp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hw"
)

// FrontendConfig describes the fingerprint extractor. DefaultFrontend
// matches the paper exactly.
type FrontendConfig struct {
	SampleRate    int // Hz
	WindowSamples int // samples per analysis window (30 ms)
	StrideSamples int // hop between windows (20 ms)
	FFTSize       int // power of two ≥ WindowSamples
	NumBins       int // spectrum bins consumed (256)
	AvgWidth      int // neighboring bins averaged per feature (6)
	NumFrames     int // frames per utterance (49)
}

// DefaultFrontend returns the paper's configuration: 16 kHz audio, 30 ms
// windows with 20 ms shift, 512-point fixed-point FFT (256 usable bins),
// 6-bin averaging → 43 features, 49 frames.
func DefaultFrontend() FrontendConfig {
	return FrontendConfig{
		SampleRate:    16000,
		WindowSamples: 480,
		StrideSamples: 320,
		FFTSize:       512,
		NumBins:       256,
		AvgWidth:      6,
		NumFrames:     49,
	}
}

// NumFeatures returns features per frame (ceil(NumBins/AvgWidth): 43).
func (c FrontendConfig) NumFeatures() int {
	return (c.NumBins + c.AvgWidth - 1) / c.AvgWidth
}

// FingerprintLen returns the flattened fingerprint length (49×43 = 2107).
func (c FrontendConfig) FingerprintLen() int {
	return c.NumFrames * c.NumFeatures()
}

// UtteranceSamples returns the number of samples consumed per utterance.
func (c FrontendConfig) UtteranceSamples() int {
	return (c.NumFrames-1)*c.StrideSamples + c.WindowSamples
}

func (c FrontendConfig) validate() error {
	if c.FFTSize <= 0 || c.FFTSize&(c.FFTSize-1) != 0 {
		return fmt.Errorf("dsp: FFT size %d not a power of two", c.FFTSize)
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("dsp: non-positive sample rate %d", c.SampleRate)
	}
	// The Hann window divides by WindowSamples-1: one sample makes it 0/0
	// (a NaN Q15 window that breaks the FFT's |x| ≤ 32767 input bound), and
	// none silently yields all-zero fingerprints.
	if c.WindowSamples < 2 {
		return fmt.Errorf("dsp: window of %d samples, need at least 2", c.WindowSamples)
	}
	if c.WindowSamples > c.FFTSize {
		return fmt.Errorf("dsp: window %d exceeds FFT size %d", c.WindowSamples, c.FFTSize)
	}
	if c.NumBins > c.FFTSize/2 {
		return fmt.Errorf("dsp: %d bins exceed FFT capacity %d", c.NumBins, c.FFTSize/2)
	}
	if c.AvgWidth <= 0 || c.StrideSamples <= 0 || c.NumFrames <= 0 || c.NumBins <= 0 {
		return fmt.Errorf("dsp: non-positive frontend geometry")
	}
	return nil
}

// Frontend extracts uint8 spectrogram fingerprints from PCM16 audio with
// fixed-point arithmetic throughout, as a microcontroller build would. All
// per-utterance state is preallocated at construction: the Q15 Hann window,
// the FFT scratch, the twiddle tables (with bit-reversal permutations) for
// the configured FFT size, and the feature bin sub-ranges of the
// log-compression stage with their reciprocals. ExtractInto is therefore
// allocation-free; a frontend is cheap to keep per worker.
//
// The spectrum comes from the real-input FFT (rfftPowerFixed): the FFTSize
// real samples, windowed and packed straight into bit-reversed order, run
// through an FFTSize/2-point complex FFT plus a split post-pass, halving
// the butterfly and twiddle-load count per frame versus the full complex
// transform the frontend originally used. The output
// scale (1/FFTSize) is unchanged, so feature values match the old path
// within the fixed-point rounding tolerance (the split post-pass rounds
// where the discarded butterfly stage truncated — individual fingerprint
// bytes may differ by a least-significant step, never more).
type Frontend struct {
	cfg    FrontendConfig
	window []int32  // Q15 Hann window
	re, im []int32  // packed even/odd scratch, FFTSize/2 each
	pow    []uint64 // fused per-bin spectral powers, FFTSize/2
	twHalf *twiddles
	twFull *twiddles
	// binLo/binHi are the precomputed [lo, hi) spectrum sub-range of each
	// feature (the final feature may cover fewer than AvgWidth bins), and
	// binRecip the reciprocal of its width that divRecip divides by.
	binLo, binHi []int
	binRecip     []uint64
}

// NewFrontend builds a frontend for cfg, which must be fully specified: it
// applies no defaults and rejects an invalid geometry. Start from
// DefaultFrontend for the paper's configuration.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	features := cfg.NumFeatures()
	f := &Frontend{
		cfg:      cfg,
		window:   make([]int32, cfg.WindowSamples),
		re:       make([]int32, cfg.FFTSize/2),
		im:       make([]int32, cfg.FFTSize/2),
		pow:      make([]uint64, cfg.FFTSize/2),
		twHalf:   twiddlesFor(cfg.FFTSize / 2),
		twFull:   twiddlesFor(cfg.FFTSize),
		binLo:    make([]int, features),
		binHi:    make([]int, features),
		binRecip: make([]uint64, features),
	}
	for i := range f.window {
		// Hann window in Q15.
		w := 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(cfg.WindowSamples-1))
		f.window[i] = int32(math.Round(w * 32767))
	}
	for feat := 0; feat < features; feat++ {
		lo := feat * cfg.AvgWidth
		hi := lo + cfg.AvgWidth
		if hi > cfg.NumBins {
			hi = cfg.NumBins
		}
		f.binLo[feat], f.binHi[feat] = lo, hi
		f.binRecip[feat] = math.MaxUint64 / uint64(hi-lo)
	}
	return f, nil
}

// Config returns the frontend configuration.
func (f *Frontend) Config() FrontendConfig { return f.cfg }

// Extract computes the fingerprint of a 1 s utterance. Input shorter than
// UtteranceSamples is zero-padded; longer input is truncated. The returned
// slice has FingerprintLen() elements in frame-major order.
func (f *Frontend) Extract(samples []int16) []uint8 {
	return f.ExtractInto(make([]uint8, f.cfg.FingerprintLen()), samples)
}

// ExtractInto is Extract writing into caller-owned storage: dst is resliced
// to FingerprintLen() when its capacity suffices (the zero-allocation hot
// path) and reallocated otherwise. It returns the fingerprint slice.
func (f *Frontend) ExtractInto(dst []uint8, samples []int16) []uint8 {
	cfg := f.cfg
	features := cfg.NumFeatures()
	if n := cfg.FingerprintLen(); cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]uint8, n)
	}
	for frame := 0; frame < cfg.NumFrames; frame++ {
		f.frameInto(dst[frame*features:(frame+1)*features], samples, frame*cfg.StrideSamples)
	}
	return dst
}

// frameInto computes the NumFeatures() feature values of the single analysis
// window starting at sample offset start, writing them into dst. Samples
// beyond len(samples) are treated as zeros (the utterance-tail padding).
// This is the shared per-frame kernel of ExtractInto and Streamer.Push, so
// streamed fingerprints are bit-exact against full recomputation.
func (f *Frontend) frameInto(dst []uint8, samples []int16, start int) {
	// The samples actually present; the rest of the window is zero padding.
	var frame []int16
	if start < len(samples) {
		frame = samples[start:min(len(samples), start+f.cfg.WindowSamples)]
	}
	packWindowed(f.re, f.im, frame, f.window, f.twHalf.perm)
	// Fused post-pass: the real-FFT unzip squares each spectrum bin while
	// it is in registers (rfftPowerFixed), so the bin-averaging loop below
	// reads one power array instead of re-loading two spectrum arrays, and
	// log compression runs on the integer threshold LUT — no float math on
	// the hot path. Both halves are bit-exact with the unfused pipeline
	// (TestFrontendFusedEquivalence): the powers are the same squares, and
	// logCompressFixed equals logCompress on every uint64 by construction.
	// Bin averages divide by multiplying with the width's reciprocal
	// (divRecip), exact for every accumulator value.
	rfftPowerFixed(f.re, f.im, f.twHalf, f.twFull, f.pow)
	pw := f.pow
	for feat := range f.binLo {
		lo, hi := f.binLo[feat], f.binHi[feat]
		var acc uint64
		if lo > hi || hi > len(pw) {
			continue
		}
		for _, p := range pw[lo:hi] {
			acc += p
		}
		dst[feat] = logCompressFixed(divRecip(acc, uint64(hi-lo), f.binRecip[feat]))
	}
}

// packWindowed writes the Hann-windowed frame into the real-FFT layout the
// stage kernel expects: sample pair (2i, 2i+1) becomes complex point i
// (even sample real, odd imaginary), stored straight at its bit-reversed
// slot perm[i], so the frontend needs no separate permutation pass. The
// frame may be shorter than the window (the utterance tail); every slot
// whose pair lies beyond it is zeroed. The window multiply keeps the
// original Q15 rounding, (x·w/2) >> 15, so the packed values are those of
// a natural-order pack followed by bitReversePerm.
func packWindowed(re, im []int32, frame []int16, window, perm []int32) {
	if len(im) < len(re) {
		panic("dsp: packWindowed im shorter than re")
	}
	im = im[:len(re)]
	s, w, p := frame, window, perm
	for len(s) >= 2 && len(w) >= 2 && len(p) >= 1 {
		if j := int(p[0]); uint(j) < uint(len(re)) {
			re[j] = int32((int64(s[0]) * int64(w[0]) / 2) >> 15)
			im[j] = int32((int64(s[1]) * int64(w[1]) / 2) >> 15)
		}
		s, w, p = s[2:], w[2:], p[1:]
	}
	if len(s) == 1 && len(w) >= 1 && len(p) >= 1 {
		if j := int(p[0]); uint(j) < uint(len(re)) {
			re[j] = int32((int64(s[0]) * int64(w[0]) / 2) >> 15)
			im[j] = 0
		}
		p = p[1:]
	}
	for _, j := range p {
		if j := int(j); uint(j) < uint(len(re)) {
			re[j], im[j] = 0, 0
		}
	}
}

// divRecip returns ⌊x/d⌋ for any uint64 x and d ≥ 1 given r = ⌊(2^64−1)/d⌋,
// with one 64×64→128 multiply instead of a hardware divide. The high word
// q of x·r undershoots ⌊x/d⌋ by at most one (r·d > 2^64 − 1 − d, so
// x·r/2^64 > x/d − 1), and the remainder x − q·d < 2d tells which: adding
// 1 − ((x − q·d − d) >> 63) corrects q without a branch.
func divRecip(x, d, r uint64) uint64 {
	q, _ := bits.Mul64(x, r)
	return q + 1 - (x-q*d-d)>>63
}

// logCompress maps an averaged power value to a uint8 feature:
// min(255, round(8·log2(1+p))). The factor 8 spreads the fixed-point power
// range (≈2^31 max) over the full byte, the same role as TFLM's log-scale
// stage. This float form is the reference; the hot path uses
// logCompressFixed, which is exactly equal on every input by construction.
func logCompress(p uint64) uint8 {
	v := 8 * math.Log2(1+float64(p))
	if v > 255 {
		return 255
	}
	return uint8(math.Round(v))
}

// logThresholds[v] is the smallest power p with logCompress(p) ≥ v+1 (and
// MaxUint64 for v = 255, which is never exceeded). Built once by binary
// search against the float reference itself, so logCompressFixed inherits
// its exact rounding behavior — including any float64 quirks at the
// boundaries — rather than re-deriving the cut points analytically.
var logThresholds = func() *[256]uint64 {
	var t [256]uint64
	for v := 0; v < 255; v++ {
		// Invariant: logCompress(lo) ≤ v < logCompress(hi).
		lo, hi := uint64(0), uint64(1)<<40
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if logCompress(mid) <= uint8(v) {
				lo = mid
			} else {
				hi = mid
			}
		}
		t[v] = hi
	}
	t[255] = math.MaxUint64
	return &t
}()

// logCompressFixed is logCompress as an integer threshold search: for
// p ≥ 1 with bit length L, 8·log2(1+p) lies in [8(L−1), 8L], so the byte
// is v0 = 8(L−1) plus the count of the eight thresholds
// logThresholds[v0..v0+7] that p reaches. Four fixed comparisons find that
// count (three halving steps over the first seven, then the eighth). No
// floating point, bit-identical to the reference on every uint64.
func logCompressFixed(p uint64) uint8 {
	l := bits.Len64(p)
	if l == 0 {
		return 0
	}
	if l > 32 {
		// 8·log2(1+p) > 8·32 = 256: saturated.
		return 255
	}
	// v0 ≤ 248, so every probe index is at most 255 and the uint8 casts
	// are lossless; they make each table access in-bounds by type alone
	// (make bce-check). p < 2^32 never reaches logThresholds[255]. Each
	// step adds its width times reached(p, t) instead of branching: the
	// outcomes are data-dependent and would mispredict.
	v := 8 * (l - 1)
	v += 4 * reached(p, logThresholds[uint8(v+3)])
	v += 2 * reached(p, logThresholds[uint8(v+1)])
	v += reached(p, logThresholds[uint8(v)])
	v += reached(p, logThresholds[uint8(v)])
	return uint8(v)
}

// reached is 1 if p ≥ t and 0 otherwise, computed from the borrow of p − t
// so it compiles without a branch.
func reached(p, t uint64) int {
	_, borrow := bits.Sub64(p, t, 0)
	return int(1 - borrow)
}

// Cycles returns the cost of one full fingerprint extraction on a simulated
// core: window multiplies, the butterflies of the packed FFTSize/2-point
// FFT, the real-FFT split post-pass over the FFTSize/2 spectrum bins, and
// bin post-processing.
func (f *Frontend) Cycles() uint64 {
	cfg := f.cfg
	perFrame := uint64(cfg.WindowSamples)*2 + // window multiply + load
		ButterflyCount(cfg.FFTSize/2)*hw.CyclesPerButterfly +
		uint64(cfg.FFTSize/2)*hw.CyclesPerRFFTPostBin +
		uint64(cfg.NumBins)*hw.CyclesPerFeatureBin
	return perFrame * uint64(cfg.NumFrames)
}
