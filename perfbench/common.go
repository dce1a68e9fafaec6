package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dsp"
	"repro/internal/omgcrypto"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

// numUtterances distinct utterances feed every workload. Per-request work
// does not depend on the audio (a fixed one-second window), so the variety
// serves the label check, not the load.
const numUtterances = 8

// modelSeed fixes the random weights of the served tiny_conv; the reference
// model is built independently from the same seed. Random weights put most
// inputs in one class; with this seed every seed's eight utterances tried
// span two to five classes, so a reply for the wrong utterance can show.
const modelSeed = 12

// inputs are a workload's seeded utterances and the label the direct
// in-process path assigns to each.
type inputs struct {
	utts   [][]int16
	labels []int
}

// makeInputs draws numUtterances keyword utterances from the seed and labels
// each with a separately built model through dsp.Frontend.ExtractInto and
// tflm.Interpreter.Invoke — the reference every served reply must match.
func makeInputs(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := speechcmd.DefaultConfig()
	cfg.Seed = seed
	gen := speechcmd.NewGenerator(cfg)
	ref, err := newEngine()
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for i := 0; i < numUtterances; i++ {
		word := speechcmd.TargetWords[rng.Intn(len(speechcmd.TargetWords))]
		utt := gen.Utterance(word, rng.Intn(1000), i)
		label, err := ref.classify(utt)
		if err != nil {
			return nil, err
		}
		in.utts = append(in.utts, utt)
		in.labels = append(in.labels, label)
	}
	return in, nil
}

// engine is the direct in-process classifier: one frontend and one
// interpreter, the two kernels every served request runs.
type engine struct {
	fe *dsp.Frontend
	ip *tflm.Interpreter
	fp []uint8
}

func newEngine() (*engine, error) {
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return nil, err
	}
	m, err := tflm.BuildRandomTinyConv(1, modelSeed)
	if err != nil {
		return nil, err
	}
	ip, err := tflm.NewInterpreter(m)
	if err != nil {
		return nil, err
	}
	return &engine{fe: fe, ip: ip}, nil
}

// classify runs ExtractInto then Invoke and returns the argmax label, with
// the fingerprint quantized into the input tensor as the serving workers do.
func (e *engine) classify(utt []int16) (int, error) {
	_, _, label, err := e.timed(utt)
	return label, err
}

// timed is classify with each kernel call timed separately.
func (e *engine) timed(utt []int16) (extract, invoke time.Duration, label int, err error) {
	t0 := time.Now()
	e.fp = e.fe.ExtractInto(e.fp, utt)
	t1 := time.Now()
	in := e.ip.Input(0)
	for i, f := range e.fp {
		in.I8[i] = int8(int32(f) - 128)
	}
	t2 := time.Now()
	if err := e.ip.Invoke(); err != nil {
		return 0, 0, -1, err
	}
	t3 := time.Now()
	return t1.Sub(t0), t3.Sub(t2), tflm.Argmax(e.ip.Output(0)), nil
}

// streamHop times dsp.Streamer.Push of one stride of audio plus Fingerprint,
// the incremental frontend's per-hop cost, over n warm hops; it returns the
// median.
func streamHop(utts [][]int16, n int) (time.Duration, error) {
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return 0, err
	}
	st := dsp.NewStreamer(fe)
	stride := fe.Config().StrideSamples
	var audio []int16
	for _, u := range utts {
		audio = append(audio, u...)
	}
	pos := 0
	next := func() []int16 {
		if pos+stride > len(audio) {
			pos = 0
		}
		pos += stride
		return audio[pos-stride : pos]
	}
	for !st.Ready() {
		st.Push(next())
	}
	var fp []uint8
	hops := make([]time.Duration, n)
	for i := range hops {
		chunk := next()
		t0 := time.Now()
		st.Push(chunk)
		fp = st.Fingerprint(fp)
		hops[i] = time.Since(t0)
	}
	return quantile(hops, 0.5), nil
}

// stableKeys is a seeded stream of key material on which every run draws
// the same RSA keys. crypto/rsa.GenerateKey deliberately reads one extra
// byte, with probability one half, before each prime candidate, so on a
// plain seeded reader the keys, the prime search's cost and everything
// drawn after them differ from run to run. One-byte reads here return 0
// and leave the stream where it was.
func stableKeys(seed string) io.Reader { return stableReader{omgcrypto.NewDRBG(seed)} }

type stableReader struct{ r io.Reader }

func (s stableReader) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return s.r.Read(p)
}

// quantile returns the q-quantile of xs (nearest rank, xs reordered), 0 for
// an empty slice.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile 0.5 over a copy, leaving xs in place.
func median(xs []time.Duration) time.Duration {
	return quantile(append([]time.Duration(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hostRefIters sizes the host reference loop to a few tens of ms.
const hostRefIters = 20_000_000

// hostRefSink keeps the reference loop's result live.
var hostRefSink uint64

// hostRef times a fixed integer loop. It is recorded beside every run to
// show host drift and never used to scale a metric.
func hostRef() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < hostRefIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	hostRefSink = x
	return time.Since(t0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostFingerprint names what makes runs comparable: CPU model, CPU count,
// GOMAXPROCS and Go version. Figures from hosts with different fingerprints
// are not comparable.
func hostFingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
