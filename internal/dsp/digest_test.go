package dsp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/speechcmd"
)

// fingerprintDigest is the SHA-256 of the fingerprints of the fixed input
// corpus in TestFingerprintDigest, recorded before the frontend kernel was
// restructured (fused FFT stages, bit reversal folded into the windowed
// pack, divide-free bin averaging). A kernel change that moves any
// fingerprint byte changes it.
const fingerprintDigest = "8115da26905d4b48136b9b0f05d9328328c3cd6c9e5f21c9d294a8fca5c06993"

// digestCorpus returns the fixed inputs of TestFingerprintDigest: seeded
// speechcmd utterances of every class, full-range random audio,
// full-scale ±32767 square waves, and short and empty inputs that exercise
// the zero-padded tail of the windowed pack.
func digestCorpus(cfg dsp.FrontendConfig) [][]int16 {
	var corpus [][]int16
	g := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	for label := 0; label < speechcmd.NumLabels; label++ {
		for speaker := 0; speaker < 3; speaker++ {
			corpus = append(corpus, g.Example(label, speaker, label+speaker).Samples)
		}
	}
	r := rand.New(rand.NewSource(13))
	full := cfg.UtteranceSamples()
	for _, n := range []int{0, 1, 2, cfg.WindowSamples - 1, cfg.WindowSamples, cfg.WindowSamples + 1,
		full / 2, full - 1, full, cfg.SampleRate} {
		s := make([]int16, n)
		for i := range s {
			s[i] = int16(r.Intn(65536) - 32768)
		}
		corpus = append(corpus, s)
	}
	for _, period := range []int{2, 3, 16, 37, 512} {
		s := make([]int16, full)
		for i := range s {
			s[i] = 32767
			if (i/period)&1 == 1 {
				s[i] = -32767
			}
		}
		corpus = append(corpus, s)
	}
	return corpus
}

// TestFingerprintDigest pins every fingerprint byte of the default frontend
// over digestCorpus: host-side kernel work must leave the features exactly
// where they were.
func TestFingerprintDigest(t *testing.T) {
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	dst := make([]uint8, fe.Config().FingerprintLen())
	for _, s := range digestCorpus(fe.Config()) {
		h.Write(fe.ExtractInto(dst, s))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fingerprintDigest {
		t.Fatalf("fingerprint digest %s, want %s", got, fingerprintDigest)
	}
}
