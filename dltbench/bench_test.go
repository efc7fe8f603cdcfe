package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diesel/internal/epoch"
)

// The zero-copy and chunk paths are chosen by type assertions on these
// interfaces; the wrappers must keep satisfying them.
var (
	_ epoch.ViewReader  = (*tracedViewReader)(nil)
	_ epoch.FileReader  = (*tracedViewReader)(nil)
	_ epoch.ChunkClient = (*tracedChunkClient)(nil)
	_ epoch.Source      = (*tracedSource)(nil)
)

// smoke returns options for a small, fast run of one workload.
func smoke(t *testing.T, workload string) *options {
	return &options{
		workload: workload, seed: 7, files: 512, setups: 1, batch: 8,
		dir: t.TempDir(), spans: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// tables the program emits in agreement.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	if !equal(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", doc.EndToEnd, endToEnd)
	}
	if !equal(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", doc.PerLayer, perLayer)
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEveryMetricEmitted runs every workload at smoke size, untraced and
// traced, and checks each named metric is printed with its unit and
// every byte read checked out.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := smoke(t, w)
			o.trace = traced
			o.count = 3
			if w == "random-rw" {
				o.count = 1200 // enough reads for a p99 with ten beyond it
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.Name, v, d.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(o.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
		}
	}
}

// TestCorruptedPayloadFailsRun injects a flipped byte through the
// wrappers and expects the oracle to fail the run.
func TestCorruptedPayloadFailsRun(t *testing.T) {
	for _, w := range workloads {
		o := smoke(t, w)
		o.trace, o.count, o.corrupt = true, 2, 3
		if w == "random-rw" {
			o.count = 300
		}
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted payloads passed: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// TestWrappersKeepPath runs each workload twice from identical inputs,
// once bare and once through the timing wrappers, and requires the
// counters that reveal which path the program took to move identically.
// Hedges fire on wall-clock timing, and a hedge repeats a group's chunk
// fetches, so the runs raise the hedge delay floor out of reach: both
// then fetch exactly the chunks their plans name.
func TestWrappersKeepPath(t *testing.T) {
	for _, w := range workloads {
		var deltas [2]map[string]float64
		for i, wrapped := range []bool{false, true} {
			o := smoke(t, w)
			o.count = 2
			o.hedgeFloor = time.Minute
			if w == "random-rw" {
				o.count = 300
			}
			spec := newSpec(o)
			data := make([][]byte, spec.NumFiles)
			for j := range data {
				data[j] = spec.FileData(j)
			}
			tl := &tally{}
			st, _, err := setup(o, spec, data, 0, tl)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			var rec *recorder
			if wrapped {
				rec = newRecorder()
			}
			c0 := readCounters(st)
			if _, err := st.measure(rec, o.budget(1), 1); err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			c1 := readCounters(st)
			if _, failed, failures := tl.counts(); failed != 0 {
				t.Errorf("%s wrapped=%v: %d failures: %v", w, wrapped, failed, failures)
			}
			st.close()
			obsd := func(name string, keep func(map[string]string) bool) float64 {
				v, n, _ := obsDelta(c0, c1, name, keep)
				return v + n // a counter's value or a histogram's count
			}
			deltas[i] = map[string]float64{
				"dcache local reads":   float64(c1.peer.LocalHits.Load() - c0.peer.LocalHits.Load()),
				"dcache peer reads":    float64(c1.peer.PeerReads.Load() - c0.peer.PeerReads.Load()),
				"epoch chunk fallback": obsd("diesel_epoch_chunk_fallbacks_total", nil),
				"epoch hedges":         obsd("diesel_epoch_hedges_total", nil),
				"served getChunk":      obsd("diesel_wire_served_seconds", labelIs("method", "dsl.getChunk")),
				"exec chunk reads":     float64(c1.exec.chunkReads - c0.exec.chunkReads),
				"exec range reads":     float64(c1.exec.rangeReads - c0.exec.rangeReads),
			}
		}
		if h := deltas[0]["epoch hedges"]; h != 0 {
			t.Errorf("%s: %v hedges fired with the delay floor out of reach", w, h)
		}
		for k, bare := range deltas[0] {
			if got := deltas[1][k]; got != bare {
				t.Errorf("%s: %s moved %v bare but %v wrapped", w, k, bare, got)
			}
		}
		t.Logf("%s: %v", w, deltas[0])
	}
}

// TestDroppedSpanFailsReconciliation leaves out the span of the layer
// that does most of each workload's work; its time then belongs to no
// layer and the traced run must fail to reconcile.
func TestDroppedSpanFailsReconciliation(t *testing.T) {
	drop := map[string]string{"epoch-server": "epoch.next", "epoch-cache": "epoch.next", "random-rw": "client.get"}
	for _, w := range workloads {
		o := smoke(t, w)
		o.trace, o.count, o.dropSpan = true, 2, drop[w]
		if w == "random-rw" {
			o.count = 300
		}
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		r := res.Metrics["bench.residual_frac"].Value
		if res.Correct || r <= residualBound {
			t.Errorf("%s without %s spans: correct=%v residual=%.4f", w, drop[w], res.Correct, r)
		}
	}
}

// TestReconcileSpans checks the reconciliation arithmetic on hand-made
// spans: one consumer (0..100) with an iteration (10..90) holding
// epoch.next (10..60) and verify (60..85), and an epoch.open (0..10).
func TestReconcileSpans(t *testing.T) {
	base := []span{
		{Name: "consumer", Parent: -1, Start: 0, End: 100},
		{Name: "epoch.open", Parent: 0, Start: 0, End: 10},
		{Name: "iter", Parent: 0, Start: 10, End: 90},
		{Name: "epoch.next", Parent: 2, Start: 10, End: 60},
		{Name: "verify", Parent: 2, Start: 60, End: 85},
		{Name: "epoch.read_group", Parent: -1, Start: 5, End: 55}, // prefetch, not the consumer's
	}
	cases := []struct {
		name            string
		spans           []span
		wall, accounted time.Duration
	}{
		{"complete", base, 100, 85},
		{"verify dropped", append(append([]span(nil), base[:4]...), base[5]), 100, 60},
		{"verify misparented", append(append([]span(nil), base[:4]...),
			span{Name: "verify", Parent: -1, Start: 60, End: 85}), 100, 60},
		{"verify recorded twice", append(append([]span(nil), base...),
			span{Name: "verify", Parent: 2, Start: 60, End: 85}), 100, 110},
	}
	for _, c := range cases {
		wall, acc := reconcileSpans(c.spans)
		if wall != c.wall || acc != c.accounted {
			t.Errorf("%s: wall %d accounted %d, want %d and %d", c.name, wall, acc, c.wall, c.accounted)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1009)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1009..1, unsorted
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 999 {
		t.Errorf("p99 of 1..1009 = %v, %v; want 999, true", v, ok)
	}
	if _, ok := percentile(xs[:1000], 0.995); ok {
		t.Error("p99.5 of 1000 samples has five beyond it and must not be reported")
	}
	// percentile sorted xs in place: xs[:22] now holds 1..22.
	if v, ok := percentile(xs[:22], 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..22 = %v, %v; want 11, true", v, ok)
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	ivs := [][2]int64{{5, 15}, {0, 3}, {10, 20}, {30, 40}}
	if got := covered(ivs, 2, 35); got != 1+15+5 {
		t.Errorf("covered = %d, want 21", got)
	}
}
