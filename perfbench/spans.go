package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/loadgen"
)

// span is one timed call at a layer boundary. Spans of one request share
// its id, the arrival's sequence number in the seeded schedule; depth says
// how far down the replay went (1 client, 2 registry, 3 direct kernels).
type span struct {
	depth      int
	layer      string
	tenant     string
	class      loadgen.Class
	id         int
	start, end time.Time
	ok         bool
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// addDirect records one direct ExtractInto + Invoke replay of request id as
// two consecutive depth-3 spans ending now.
func (l *spanLog) addDirect(tenant string, id int, extract, invoke time.Duration) {
	end := time.Now()
	mid := end.Add(-invoke)
	l.add(span{depth: 3, layer: "dsp.extract", tenant: tenant, class: loadgen.ClassOneShot, id: id, start: mid.Add(-extract), end: mid, ok: true})
	l.add(span{depth: 3, layer: "tflm.invoke", tenant: tenant, class: loadgen.ClassOneShot, id: id, start: mid, end: end, ok: true})
}

// bySeq indexes the successful spans of one depth, tenant and class by id.
func (l *spanLog) bySeq(depth int, tenant string, class loadgen.Class) map[int]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[int]span{}
	for _, s := range l.spans {
		if s.depth == depth && s.tenant == tenant && s.class == class && s.ok {
			m[s.id] = s
		}
	}
	return m
}

// write stores every span as one JSON object per line in
// dir/<workload>-seed<seed>.jsonl, times in ns from the first span.
func (l *spanLog) write(dir, workload string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var base time.Time
	for _, s := range l.spans {
		if base.IsZero() || s.start.Before(base) {
			base = s.start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		err := enc.Encode(struct {
			Depth   int    `json:"depth"`
			Layer   string `json:"layer"`
			Tenant  string `json:"tenant,omitempty"`
			Class   string `json:"class"`
			ID      int    `json:"id"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			OK      bool   `json:"ok"`
		}{s.depth, s.layer, s.tenant, s.class.String(), s.id, int64(s.start.Sub(base)), int64(s.end.Sub(base)), s.ok})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
