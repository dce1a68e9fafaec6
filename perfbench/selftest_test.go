package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// These tests check the benchmark itself, not the program: run them with
//
//	go -C perfbench test .

// TestMetricCatalogueMatchesBenchmarkJSON checks that the metrics the
// command emits are exactly those BENCHMARK.json declares, with its units.
func TestMetricCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		emitted  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.declared) != len(set.emitted) {
			t.Errorf("BENCHMARK.json declares %d metrics, the command emits %d", len(set.declared), len(set.emitted))
			continue
		}
		for i, m := range set.declared {
			if e := set.emitted[i]; e.name != m.Name || e.unit != m.Unit {
				t.Errorf("BENCHMARK.json declares %s (%s), the command emits %s (%s)", m.Name, m.Unit, e.name, e.unit)
			}
		}
	}
}

func runOnce(t *testing.T, workload string, trace bool, delay time.Duration) *result {
	t.Helper()
	o := options{workload: workload, seed: 3, seconds: 3, trace: trace, delay: delay, spansDir: t.TempDir()}
	res, err := measure(o, workloads[workload])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d", workload, res.Correct, res.Failed)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", workload, len(res.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s missing or without its unit", workload, d.name)
		}
	}
	return res
}

// TestPlantedDelayMovesServedP50 plants a fixed delay in the benchmark's own
// request step: oneshot-light's p50_ms must move by about that delay.
func TestPlantedDelayMovesServedP50(t *testing.T) {
	const delay = 3 * time.Millisecond
	base := runOnce(t, "oneshot-light", false, 0).Metrics["p50_ms"].Value
	slow := runOnce(t, "oneshot-light", false, delay).Metrics["p50_ms"].Value
	if got := slow - base; got < 0.7*ms(delay) || got > 1.5*ms(delay) {
		t.Errorf("planted %v moved p50_ms by %.3f ms (%.3f -> %.3f)", delay, got, base, slow)
	}
}

// TestPlantedDelayLeavesSimTime plants the same kind of delay in the
// enclave user's step: wall time moves, simulated device time does not.
func TestPlantedDelayLeavesSimTime(t *testing.T) {
	const delay = 2 * time.Millisecond
	base := runOnce(t, "enclave-offline", true, 0).Metrics
	slow := runOnce(t, "enclave-offline", true, delay).Metrics
	if b, s := base["sim_ms_per_query"].Value, slow["sim_ms_per_query"].Value; b != s || b <= 0 {
		t.Errorf("sim_ms_per_query %v -> %v with a planted delay, want equal and positive", b, s)
	}
	if b, s := base["trustzone.switches_per_query"].Value, slow["trustzone.switches_per_query"].Value; b != s {
		t.Errorf("trustzone.switches_per_query %v -> %v with a planted delay", b, s)
	}
}

// TestTracedServedRun checks that a traced run emits every per-layer metric
// and that the layers it measures on oneshot-light read above zero.
func TestTracedServedRun(t *testing.T) {
	m := runOnce(t, "oneshot-light", true, 0).Metrics
	for _, name := range []string{"netfront.self_us", "dsp.extract_us", "tflm.invoke_us", "dsp.stream_hop_us", "stream_p50_ms", "host.ref_ms"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v on oneshot-light, want > 0", name, m[name].Value)
		}
	}
}
