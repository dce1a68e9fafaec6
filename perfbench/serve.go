package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/tflm"
)

const (
	modelID = "kws"
	// serverWorkers is the only ServerConfig knob the benchmark sets.
	serverWorkers = 2
	// primaryTenant owns the one-utterance requests behind p50_ms, p99_ms
	// and slo_attain on both served workloads.
	primaryTenant = "voice"
	// servedSetups is how many times a run builds the serving stack: the
	// first serves the run, the rest follow the measured passes. setup_s is
	// their median.
	servedSetups = 25
	warmup       = time.Second
	// requestTimeout bounds one request end to end so a lost reply fails the
	// request instead of hanging the run.
	requestTimeout = 10 * time.Second
	// directSamples caps the direct ExtractInto + Invoke replay of a traced
	// run, and streamHops the incremental-frontend probe.
	directSamples = 2000
	streamHops    = 2000
	batchSize     = 4
	streamChunks  = 4
)

// tenantLoad is one tenant's traffic on its own connection: an open-loop
// Poisson schedule at a fixed absolute rate, so a faster server faces the
// same load, or a closed-loop flood.
type tenantLoad struct {
	name string
	rate float64
	mix  loadgen.Mix
	// flood, when positive, replaces the schedule with this many closed-loop
	// one-shot callers that each wait for their reply, and after a BUSY or
	// shed answer for the server's retry-after hint, before sending again.
	flood int
}

// servedWorkload is a traffic mix against omg-serve's wiring.
type servedWorkload struct {
	// loads are the tenants' traffic; a tenant with streams in its mix gets a
	// second connection for them.
	loads []tenantLoad
	// swapEvery re-signs and hot-swaps the same weights at this period; 0
	// means no swaps.
	swapEvery time.Duration
	// errorsFail makes any failed request fail the run; without it only a
	// label mismatch does (overload answers are BUSY and shed, not errors).
	errorsFail bool
}

// oneshotLight is the canonical served utterance at about a quarter of a
// 2-vCPU host's one-shot capacity, with streams on a second connection.
var oneshotLight = servedWorkload{
	loads:      []tenantLoad{{name: primaryTenant, rate: 440, mix: loadgen.Mix{OneShot: 400, Stream: 40}}},
	errorsFail: true,
}

// tenantsOverload floods one tenant past capacity beside a light voice
// tenant of equal DRR weight, with a vendor-signed swap every 2 s. The flood
// is closed-loop: 96 callers keep the 64-deep tenant queue full on a host of
// any speed, so BUSY, overload shed and queue-drain batching engage without
// the generator spending CPU on arrivals the server cannot take. No streams:
// a swap legitimately fails in-flight streams.
var tenantsOverload = servedWorkload{
	loads: []tenantLoad{
		{name: "bulk", flood: 96},
		{name: primaryTenant, rate: 100, mix: loadgen.Mix{OneShot: 9, Batch: 1}},
	},
	swapEvery: 2 * time.Second,
}

func runOneshotLight(o options) (*outcome, error)    { return runServed(o, oneshotLight) }
func runTenantsOverload(o options) (*outcome, error) { return runServed(o, tenantsOverload) }

// stack is one serving node as omg-serve wires it: a registry behind a
// netfront front end on a loopback listener, plus the client connections
// (at most two) the workload drives.
type stack struct {
	reg    *core.Registry
	fe     *netfront.FrontEnd
	served chan error
	conns  map[string]*client.Client
	stream *client.Client
}

// startStack builds the model, registry, front end and listener, dials the
// workload's connections and waits for a first correct reply on each. It
// returns the stack and how long NewRegistry took.
func startStack(w servedWorkload, signer *core.SwapSigner, in *inputs) (*stack, time.Duration, error) {
	m, err := tflm.BuildRandomTinyConv(1, modelSeed)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	reg, err := core.NewRegistry(map[string]core.ModelConfig{
		modelID: {Model: m, Version: 1, VendorPub: signer.VendorPub(), Key: signer.Key()},
	}, core.RegistryConfig{Server: core.ServerConfig{Workers: serverWorkers}})
	if err != nil {
		return nil, 0, err
	}
	regDur := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, 0, err
	}
	s := &stack{
		reg:    reg,
		fe:     netfront.NewFrontEndRegistry(reg, netfront.Config{}),
		served: make(chan error, 1),
		conns:  map[string]*client.Client{},
	}
	go func() { s.served <- s.fe.Serve(ln) }()
	dial := func(tenant string) (*client.Client, error) {
		c, err := client.DialOptions("tcp", ln.Addr().String(), client.Options{Tenant: tenant})
		if err != nil {
			return nil, err
		}
		label, err := c.Classify(in.utts[0])
		if err == nil && label != in.labels[0] {
			err = fmt.Errorf("first reply: label %d, want %d", label, in.labels[0])
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	for _, l := range w.loads {
		c, err := dial(l.name)
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("dial %s: %w", l.name, err)
		}
		s.conns[l.name] = c
		if l.mix.Stream > 0 {
			if s.stream, err = dial(l.name); err != nil {
				s.close()
				return nil, 0, fmt.Errorf("dial %s stream connection: %w", l.name, err)
			}
		}
	}
	return s, regDur, nil
}

// close tears the node down in omg-serve's order: connections, front end
// (and its accept loop), then the registry drain.
func (s *stack) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.stream != nil {
		s.stream.Close()
	}
	s.fe.Close()
	<-s.served
	s.reg.Close()
}

var errMismatch = errors.New("label mismatch")

// wireTarget is the benchmark's loadgen.Target: every request goes through
// netfront/client and every reply's label is checked against the direct
// in-process label of the same utterance.
type wireTarget struct {
	oneshot, stream *client.Client
	in              *inputs
	delay           time.Duration
	spans           *spanLog // nil when untraced

	offered    [3]atomic.Uint64 // per loadgen.Class
	mismatches atomic.Uint64
	// doNanos/doCount time completed Do calls from the target's own side,
	// for the generator-lateness estimate.
	doNanos atomic.Int64
	doCount atomic.Int64
}

func (t *wireTarget) Do(class loadgen.Class, tenant string, seq int) error {
	t.offered[class].Add(1)
	start := time.Now()
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	err := t.do(class, seq)
	end := time.Now()
	if errors.Is(err, errMismatch) {
		t.mismatches.Add(1)
	}
	if t.spans != nil {
		t.spans.add(span{depth: 1, layer: "netfront.client", tenant: tenant, class: class, id: seq, start: start, end: end, ok: err == nil})
	}
	if err == nil {
		t.doNanos.Add(int64(end.Sub(start)))
		t.doCount.Add(1)
	}
	return err
}

func (t *wireTarget) do(class loadgen.Class, seq int) error {
	k := seq % len(t.in.utts)
	want := t.in.labels[k]
	switch class {
	case loadgen.ClassOneShot:
		label, err := t.oneshot.ClassifyDeadline(t.in.utts[k], time.Now().Add(requestTimeout))
		if err != nil {
			return err
		}
		return check(label, want)
	case loadgen.ClassBatch:
		utts := make([][]int16, batchSize)
		for j := range utts {
			utts[j] = t.in.utts[(k+j)%len(t.in.utts)]
		}
		labels, err := t.oneshot.ClassifyBatch(utts)
		if err != nil {
			return err
		}
		for j, label := range labels {
			if label < 0 {
				return fmt.Errorf("batch item %d not classified", j)
			}
			if err := check(label, t.in.labels[(k+j)%len(t.in.utts)]); err != nil {
				return err
			}
		}
		return nil
	case loadgen.ClassStream:
		return t.streamOnce(t.in.utts[k], want)
	}
	return fmt.Errorf("unknown class %v", class)
}

// streamOnce sends one utterance as a stream of chunks. A one-second
// utterance completes exactly one hop, whose label must equal the one-shot
// label: a streamed fingerprint is bit-exact with ExtractInto.
func (t *wireTarget) streamOnce(utt []int16, want int) error {
	var mu sync.Mutex
	got, hopErr := -1, error(nil)
	s, err := t.stream.OpenStream(func(hop uint64, label int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && hopErr == nil {
			hopErr = err
		}
		got = label
	})
	if err != nil {
		return err
	}
	step := len(utt) / streamChunks
	for i := 0; i < streamChunks; i++ {
		chunk := utt[i*step : (i+1)*step]
		if i == streamChunks-1 {
			chunk = utt[i*step:]
		}
		if err := s.Send(chunk); err != nil {
			s.Close()
			return err
		}
	}
	hops, err := s.Close()
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if hopErr != nil {
		return hopErr
	}
	if hops != 1 {
		return fmt.Errorf("stream classified %d hops, want 1", hops)
	}
	return check(got, want)
}

func check(got, want int) error {
	if got != want {
		return fmt.Errorf("%w: got %d, want %d", errMismatch, got, want)
	}
	return nil
}

// registryTarget replays the schedule one depth down: Registry.Submit to
// callback, in process, no wire. Streams are not replayed at this depth.
type registryTarget struct {
	reg        *core.Registry
	in         *inputs
	spans      *spanLog
	mismatches atomic.Uint64
}

func (t *registryTarget) Do(class loadgen.Class, tenant string, seq int) error {
	n := 1
	switch class {
	case loadgen.ClassStream:
		return nil
	case loadgen.ClassBatch:
		n = batchSize
	}
	k := seq % len(t.in.utts)
	start := time.Now()
	err := t.submit(tenant, k, n)
	t.spans.add(span{depth: 2, layer: "registry", tenant: tenant, class: class, id: seq, start: start, end: time.Now(), ok: err == nil})
	return err
}

// submit admits n consecutive utterances starting at k and waits for every
// admitted one's callback; it returns the first failure.
func (t *registryTarget) submit(tenant string, k, n int) error {
	type reply struct {
		res  core.Result
		want int
	}
	done := make(chan reply, n)
	var first error
	admitted := 0
	for j := 0; j < n; j++ {
		i := (k + j) % len(t.in.utts)
		want := t.in.labels[i]
		err := t.reg.Submit(modelID, tenant, t.in.utts[i], time.Time{}, func(r core.Result) { done <- reply{r, want} })
		if err != nil {
			first = err
			break
		}
		admitted++
	}
	for ; admitted > 0; admitted-- {
		r := <-done
		err := r.res.Err
		if err == nil {
			if err = check(r.res.Label, r.want); err != nil {
				t.mismatches.Add(1)
			}
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// swapper hot-swaps the model to a freshly signed package of the same
// weights at a fixed period, timing each Registry.Swap.
type swapper struct {
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	durs  []time.Duration
	fails []error
}

func startSwapper(reg *core.Registry, signer *core.SwapSigner, every time.Duration) (*swapper, error) {
	m, err := tflm.BuildRandomTinyConv(1, modelSeed)
	if err != nil {
		return nil, err
	}
	sw := &swapper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sw.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-sw.stop:
				return
			case <-tick.C:
			}
			v, _ := reg.ModelVersion(modelID)
			pkg, err := signer.Package(modelID, v+1, m)
			if err == nil {
				t0 := time.Now()
				if err = reg.Swap(modelID, pkg); err == nil {
					sw.durs = append(sw.durs, time.Since(t0))
				}
			}
			if err != nil {
				sw.fails = append(sw.fails, err)
			}
		}
	}()
	return sw, nil
}

// halt stops the swapper and waits for an in-progress swap to finish; the
// swap record is complete once it returns. Safe to call more than once.
func (sw *swapper) halt() {
	sw.once.Do(func() { close(sw.stop) })
	<-sw.done
}

// wirePhase is one pass over the wire: a report and a target per tenant.
type wirePhase struct {
	reps    map[string]*loadgen.Report
	targets map[string]*wireTarget
}

// tenantSeed derives each tenant's schedule seed from the run seed, so the
// same seed replays the same schedule at every depth.
func tenantSeed(seed int64, i int) int64 { return seed*16 + int64(i) + 1 }

// runLoads drives every tenant concurrently for dur against the target
// newTarget makes for it — loadgen.Run for an open-loop tenant, flood for a
// closed-loop one — and returns the reports by tenant.
func runLoads(w servedWorkload, seed int64, dur time.Duration, newTarget func(l tenantLoad) loadgen.Target) (map[string]*loadgen.Report, error) {
	reps := make(map[string]*loadgen.Report, len(w.loads))
	errs := make([]error, len(w.loads))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, l := range w.loads {
		tgt := newTarget(l)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rep *loadgen.Report
			var err error
			if l.flood > 0 {
				rep = flood(tgt, l, dur)
			} else {
				rep, err = loadgen.Run(loadgen.Config{
					Rate:         l.rate,
					Duration:     dur,
					Seed:         tenantSeed(seed, i),
					Mix:          l.mix,
					Tenants:      []loadgen.TenantSpec{{Name: l.name}},
					DrainTimeout: requestTimeout,
				}, tgt)
			}
			mu.Lock()
			reps[l.name], errs[i] = rep, err
			mu.Unlock()
		}()
	}
	wg.Wait()
	return reps, errors.Join(errs...)
}

// flood drives one tenant closed-loop for dur: l.flood callers, each sending
// its next one-shot when the previous one is answered, and after a BUSY or
// shed answer only once the server's retry-after hint has passed. Latency is
// timed from each send.
func flood(t loadgen.Target, l tenantLoad, dur time.Duration) *loadgen.Report {
	rep := &loadgen.Report{Overall: loadgen.NewHistogram()}
	for i := range rep.PerClass {
		rep.PerClass[i] = loadgen.NewHistogram()
	}
	var seq atomic.Int64
	var offered, completed, busy, shed, errs atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < l.flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				offered.Add(1)
				t0 := time.Now()
				err := t.Do(loadgen.ClassOneShot, l.name, int(seq.Add(1)-1))
				if err == nil {
					completed.Add(1)
					rep.Overall.Record(time.Since(t0))
					rep.PerClass[loadgen.ClassOneShot].Record(time.Since(t0))
					continue
				}
				hint, isBusy := rejection(err)
				switch {
				case hint == 0:
					errs.Add(1)
					hint = time.Millisecond // a failing caller must not spin
				case isBusy:
					busy.Add(1)
				default:
					shed.Add(1)
				}
				time.Sleep(hint)
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	rep.Offered, rep.Completed, rep.Busy, rep.Shed, rep.Errors = offered.Load(), completed.Load(), busy.Load(), shed.Load(), errs.Load()
	return rep
}

// rejection returns the retry-after hint of an overload answer — BUSY
// (queue at cap) or shed (over-share, queue deadline) — over the wire or in
// process, and whether it was BUSY; a zero hint means err is a failure.
func rejection(err error) (hint time.Duration, isBusy bool) {
	var cb *client.BusyError
	var re *client.RemoteError
	var tb *core.TenantBusyError
	var oe *core.OverloadError
	switch {
	case errors.As(err, &cb):
		return cb.RetryAfter, true
	case errors.As(err, &tb):
		return tb.RetryAfter, true
	case errors.As(err, &oe):
		return oe.RetryAfter, false
	case errors.As(err, &re):
		return re.RetryAfter, re.Code == netfront.CodeBusy
	}
	return 0, false
}

func runWire(s *stack, w servedWorkload, in *inputs, seed int64, dur, delay time.Duration, spans *spanLog) (*wirePhase, error) {
	p := &wirePhase{targets: map[string]*wireTarget{}}
	for _, l := range w.loads {
		p.targets[l.name] = &wireTarget{oneshot: s.conns[l.name], stream: s.stream, in: in, delay: delay, spans: spans}
	}
	var err error
	p.reps, err = runLoads(w, seed, dur, func(l tenantLoad) loadgen.Target { return p.targets[l.name] })
	return p, err
}

// summary folds a wire phase into counts and the end-to-end metrics.
type summary struct {
	offered, completed, busy, shed, errors, inflight, mismatches uint64
	p50, p99, streamP50                                          time.Duration
	slo, goodput, lagMs                                          float64
}

func summarize(p *wirePhase) summary {
	var s summary
	var elapsed time.Duration
	var lagSum float64
	var lagN int64
	for name, rep := range p.reps {
		t := p.targets[name]
		s.offered += rep.Offered
		s.completed += rep.Completed
		s.busy += rep.Busy
		s.shed += rep.Shed
		s.errors += rep.Errors
		s.inflight += rep.Inflight
		s.mismatches += t.mismatches.Load()
		elapsed = max(elapsed, rep.Elapsed)
		if name != primaryTenant {
			continue
		}
		if n := t.doCount.Load(); n > 0 {
			lagSum += ms(rep.Overall.Mean()-time.Duration(t.doNanos.Load()/n)) * float64(n)
			lagN += n
		}
		h := rep.Latency(loadgen.ClassOneShot)
		s.p50, s.p99 = h.Quantile(0.5), h.Quantile(0.99)
		s.streamP50 = rep.Latency(loadgen.ClassStream).Quantile(0.5)
		if n := t.offered[loadgen.ClassOneShot].Load(); n > 0 {
			s.slo = float64(countWithin(h, sloLimit)) / float64(n)
		}
	}
	if elapsed > 0 {
		s.goodput = float64(s.completed) / elapsed.Seconds()
	}
	if lagN > 0 {
		s.lagMs = lagSum / float64(lagN)
	}
	return s
}

// countWithin counts the histogram's observations at or below limit, at the
// histogram's bucket resolution (about 3%).
func countWithin(h *loadgen.Histogram, limit time.Duration) uint64 {
	n := h.Count()
	// The largest rank whose quantile is within the limit; quantiles are
	// monotone in rank.
	lo, hi := uint64(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		if h.Quantile((float64(mid)+0.5)/float64(n)) <= limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// print lists each tenant's request counts and first distinct errors.
func (p *wirePhase) print(label string) {
	names := make([]string, 0, len(p.reps))
	for name := range p.reps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := p.reps[name]
		fmt.Printf("%s tenant=%s offered=%d completed=%d busy=%d shed=%d errors=%d inflight=%d mismatches=%d\n",
			label, name, rep.Offered, rep.Completed, rep.Busy, rep.Shed, rep.Errors, rep.Inflight, p.targets[name].mismatches.Load())
		for _, e := range rep.ErrorSamples {
			fmt.Printf("%s tenant=%s error: %s\n", label, name, e)
		}
	}
}

func runServed(o options, w servedWorkload) (*outcome, error) {
	in, err := makeInputs(o.seed)
	if err != nil {
		return nil, err
	}
	signer, err := core.NewSwapSigner(stableKeys("perfbench-vendor"))
	if err != nil {
		return nil, err
	}
	var setups, regs []time.Duration
	setUp := func() (*stack, error) {
		t0 := time.Now()
		s, reg, err := startStack(w, signer, in)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		regs = append(regs, reg)
		return s, nil
	}
	s, err := setUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	if _, err := runWire(s, w, in, o.seed+1<<32, warmup, o.delay, nil); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	var sw *swapper
	if w.swapEvery > 0 {
		if sw, err = startSwapper(s.reg, signer, w.swapEvery); err != nil {
			return nil, err
		}
		defer sw.halt()
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 3 // untraced, wire-traced and registry-traced passes
	}
	untraced, err := runWire(s, w, in, o.seed, dur, o.delay, nil)
	if err != nil {
		return nil, err
	}
	untraced.print("run")
	u := summarize(untraced)
	out := &outcome{
		attempted: u.offered,
		failed:    u.errors + u.inflight,
		values: map[string]float64{
			"p50_ms":              ms(u.p50),
			"p99_ms":              ms(u.p99),
			"slo_attain":          u.slo,
			"goodput_rps":         u.goodput,
			"stream_p50_ms":       ms(u.streamP50),
			"loadgen.lag_mean_ms": u.lagMs,
		},
	}
	mismatches := u.mismatches
	if o.trace {
		t, err := traceServed(o, w, s, in, dur, u)
		if err != nil {
			return nil, err
		}
		for k, v := range t.values {
			out.values[k] = v
		}
		out.attempted += t.attempted
		out.failed += t.failed
		mismatches += t.mismatches
	}
	swapFails := 0
	if sw != nil {
		sw.halt()
		fmt.Printf("swaps=%d failed=%d\n", len(sw.durs), len(sw.fails))
		for _, err := range sw.fails {
			fmt.Println("swap error:", err)
		}
		swapFails = len(sw.fails)
		out.failed += uint64(swapFails)
		out.values["registry.swap_ms_p50"] = ms(median(sw.durs))
		out.values["registry.swap_ms_max"] = ms(quantile(append([]time.Duration(nil), sw.durs...), 1))
	}
	// The remaining set-ups come after the peak RSS of the run is read, each
	// on a node of its own.
	out.values["rss_mb"] = peakRSSMB()
	s.close()
	s = nil
	for len(setups) < servedSetups {
		extra, err := setUp()
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	out.values["setup_s"] = median(setups).Seconds()
	out.values["setup.registry_s"] = median(regs).Seconds()
	out.correct = mismatches == 0 && swapFails == 0 && (!w.errorsFail || out.failed == 0)
	return out, nil
}

// traced is what the traced passes add to a served run.
type traced struct {
	values                        map[string]float64
	attempted, failed, mismatches uint64
}

// traceServed replays the untraced pass's seeded schedule at three depths —
// the client call, Registry.Submit to callback, and ExtractInto + Invoke
// called directly — with the arrival sequence number as the request id. A
// layer's self time is, per request, its span minus the next depth down.
func traceServed(o options, w servedWorkload, s *stack, in *inputs, dur time.Duration, u summary) (*traced, error) {
	spans := &spanLog{}
	before := counters(s.reg, w)
	d1, err := runWire(s, w, in, o.seed, dur, o.delay, spans)
	if err != nil {
		return nil, err
	}
	after := counters(s.reg, w)
	d1.print("traced")
	t1 := summarize(d1)

	rt := &registryTarget{reg: s.reg, in: in, spans: spans}
	if _, err := runLoads(w, o.seed, dur, func(tenantLoad) loadgen.Target { return rt }); err != nil {
		return nil, err
	}

	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	cli := spans.bySeq(1, primaryTenant, loadgen.ClassOneShot)
	reg := spans.bySeq(2, primaryTenant, loadgen.ClassOneShot)
	seqs := make([]int, 0, len(cli))
	for seq := range cli {
		if _, ok := reg[seq]; ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	if len(seqs) > directSamples {
		seqs = seqs[:directSamples]
	}
	var client, netSelf, wait, ext, inv []time.Duration
	var mismatches uint64
	for _, seq := range seqs {
		k := seq % len(in.utts)
		e, i, label, err := eng.timed(in.utts[k])
		if err != nil {
			return nil, err
		}
		if label != in.labels[k] {
			mismatches++
		}
		spans.addDirect(primaryTenant, seq, e, i)
		c, r := cli[seq].dur(), reg[seq].dur()
		client = append(client, c)
		netSelf = append(netSelf, c-r)
		wait = append(wait, r-e-i)
		ext = append(ext, e)
		inv = append(inv, i)
	}
	hop, err := streamHop(in.utts, streamHops)
	if err != nil {
		return nil, err
	}
	if err := spans.write(o.spansDir, o.workload, o.seed); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d one-shots joined across depths; spans in %s\n", len(seqs), o.spansDir)

	t := &traced{
		attempted:  t1.offered,
		failed:     t1.errors + t1.inflight,
		mismatches: t1.mismatches + rt.mismatches.Load() + mismatches,
		values: map[string]float64{
			"netfront.self_us":     us(median(netSelf)),
			"registry.wait_ms_p50": ms(median(wait)),
			"registry.wait_ms_p99": ms(quantile(wait, 0.99)),
			"dsp.extract_us":       us(median(ext)),
			"tflm.invoke_us":       us(median(inv)),
			"dsp.stream_hop_us":    us(hop),
			"trace.overhead_ms":    ms(t1.p50 - u.p50),
		},
	}
	t.values["trace.residual_us"] = us(median(client) - median(netSelf) - median(wait) - median(ext) - median(inv))
	var dispatched, voiceDispatched uint64
	for _, l := range w.loads {
		b, a := before[l.name], after[l.name]
		accepted, busy, shed := a.Accepted-b.Accepted, a.Busy-b.Busy, a.Shed-b.Shed
		if accepted+busy > 0 {
			t.values["registry.busy_ratio."+l.name] = float64(busy) / float64(accepted+busy)
		}
		if accepted > 0 {
			t.values["registry.shed_ratio."+l.name] = float64(shed) / float64(accepted)
		}
		dispatched += a.Dispatched - b.Dispatched
		if l.name == primaryTenant {
			voiceDispatched = a.Dispatched - b.Dispatched
		}
	}
	if dispatched > 0 {
		t.values["registry.voice_dispatch_share"] = float64(voiceDispatched) / float64(dispatched)
	}
	return t, nil
}

// counters snapshots every tenant's admission counters.
func counters(reg *core.Registry, w servedWorkload) map[string]core.TenantCounters {
	m := make(map[string]core.TenantCounters, len(w.loads))
	for _, l := range w.loads {
		m[l.name] = reg.TenantCounters(l.name)
	}
	return m
}
