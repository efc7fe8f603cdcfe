// Command dltbench is the repository benchmark: it drives the embedded
// DIESEL stack (core.Deploy, plus core.StartTask for the task cache)
// with one of three deep-learning-training workloads, checks every byte
// it reads against the trace.Spec content oracle, and prints one JSON
// line of metrics.
//
//	dltbench --workload epoch-server|epoch-cache|random-rw --seed N \
//	         --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced slices and prints the per-layer metrics, writing the traced
// spans to --spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	defaultFiles  = 4096 // dataset size: about 256 chunks, 32 MiB
	defaultSetups = 3    // set-ups per run; setup_s and the untraced metrics are medians over them
)

// residualBound is the stated reconciliation residual: in the traced
// slices, the consumers' wall time that the self times of their child
// spans do not account for must stay within this share, or the run fails.
const residualBound = 0.05

// tracePairs is how many untraced/traced slice pairs a traced run
// alternates (2 in fixed-size test runs). Both slices of a pair replay
// the same inputs.
const tracePairs = 10

var workloads = []string{"epoch-server", "epoch-cache", "random-rw"}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	o := &options{}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: epoch-server, epoch-cache or random-rw")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "traced run's span file (default .bench_build/spans/<workload>.jsonl)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.files, o.setups = defaultFiles, defaultSetups
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", o.workload+".jsonl")
	}
	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err == nil {
		o.dir, err = filepath.Abs(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dltbench: scratch dir:", err)
		os.Exit(1)
	}
	res, err := run(o)
	os.RemoveAll(o.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dltbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dltbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up o.setups times and measures it. Untraced,
// each stack is measured for an equal share of the time and closed, and
// each end-to-end metric is the median over the stacks. Traced, the last
// stack is measured.
func run(o *options) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if o.setups < 1 || o.files < 64 || o.count <= 0 && o.seconds <= 0 {
		return nil, fmt.Errorf("need at least 1 set-up, 64 files and --seconds > 0")
	}
	spec := newSpec(o)
	data := make([][]byte, spec.NumFiles)
	for i := range data {
		data[i] = spec.FileData(i)
	}

	var times []setupTimes
	var phases []*phase // untraced: one per stack
	var st *stack       // traced: the last stack
	tl := &tally{}
	for k := range o.setups {
		s, t, err := setup(o, spec, data, k, tl)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, t)
		if o.trace {
			if k < o.setups-1 {
				s.close()
			} else {
				st = s
			}
			continue
		}
		ph, err := s.measure(nil, o.budget(o.setups), 1)
		if err == nil {
			err = s.readBack()
		}
		s.close()
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}

	res := &result{Metrics: make(map[string]value)}
	put := func(defs []metricDef, vals map[string]float64) error {
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok {
				return fmt.Errorf("metric %s was not computed", d.Name)
			}
			res.Metrics[d.Name] = value{v, d.Unit}
		}
		return nil
	}

	residualOK := true
	if !o.trace {
		vals, err := endToEndValues(phases, times)
		if err != nil {
			return nil, err
		}
		if err := put(endToEnd, vals); err != nil {
			return nil, err
		}
	} else {
		defer st.close()
		tr, err := st.measureTraced()
		if err != nil {
			return nil, err
		}
		vals := st.perLayerValues(tr, times)
		if err := put(perLayer, vals); err != nil {
			return nil, err
		}
		residualOK = math.Abs(vals["bench.residual_frac"]) <= residualBound
		if !residualOK {
			fmt.Fprintf(os.Stderr, "dltbench: traced run does not reconcile: residual %.4f, bound ±%.2f\n",
				vals["bench.residual_frac"], residualBound)
		}
		tr.rec.printSelfTimes(tr.traced.consumerWall)
		if err := tr.rec.dump(o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		if err := st.readBack(); err != nil {
			return nil, err
		}
	}
	var failures []string
	res.Attempted, res.Failed, failures = tl.counts()
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "dltbench: failure:", f)
	}
	if o.trace {
		res.Metrics["bench.failed_frac"] = value{ratio(float64(res.Failed), float64(res.Attempted)), "frac"}
	}
	res.Correct = res.Failed == 0 && residualOK
	return res, nil
}

// budget is the measured phase budget, split evenly over parts.
func (o *options) budget(parts int) budget {
	if o.count > 0 {
		return budget{count: o.count}
	}
	return budget{dur: time.Duration(o.seconds / float64(parts) * float64(time.Second))}
}

// measure runs one measured phase of the stack's workload. phaseNo
// seeds its inputs: the random-rw operation sequences, and the epochs
// the consumers stream (epoch phaseNo*1000+1 onwards).
func (st *stack) measure(rec *recorder, b budget, phaseNo int) (*phase, error) {
	ph := &phase{}
	if st.o.workload == "random-rw" {
		st.runRW(rec, b, phaseNo, ph)
		return ph, nil
	}
	for _, c := range st.consumers {
		c.epochNo = phaseNo * 1000
	}
	return ph, st.runEpochs(rec, b, ph)
}

// window is the counter readings around one traced slice.
type window struct{ c0, c1 *counters }

// tracedRun is what a traced run observed.
type tracedRun struct {
	base, traced *phase    // the untraced and the traced slices, merged
	windows      []window  // counter readings around each traced slice
	overhead     float64   // median over pairs of the tracing overhead
	rec          *recorder // the traced slices' spans
}

// measureTraced alternates untraced and traced slices, tracePairs pairs
// of them, so host drift during the run reaches both halves alike. A
// pair's tracing overhead is the relative drop in samples per second
// (epoch-*) or rise in read p50 (random-rw) from its untraced slice to
// its traced one.
func (st *stack) measureTraced() (*tracedRun, error) {
	pairs := tracePairs
	if st.o.count > 0 {
		pairs = 2
	}
	tr := &tracedRun{base: &phase{}, traced: &phase{}, rec: newRecorder()}
	tr.rec.drop = st.o.dropSpan
	var over []float64
	for k := 1; k <= pairs; k++ {
		b, err := st.measure(nil, st.o.budget(2*pairs), k)
		if err != nil {
			return nil, err
		}
		c0 := readCounters(st)
		t, err := st.measure(tr.rec, st.o.budget(2*pairs), k)
		if err != nil {
			return nil, err
		}
		tr.windows = append(tr.windows, window{c0, readCounters(st)})
		if st.o.workload == "random-rw" {
			b50, ok1 := percentile(b.latencies(), 0.5)
			t50, ok2 := percentile(t.latencies(), 0.5)
			if ok1 && ok2 {
				over = append(over, ratio(t50-b50, b50))
			}
		} else {
			rb := ratio(float64(b.samples), b.wall.Seconds())
			rt := ratio(float64(t.samples), t.wall.Seconds())
			over = append(over, ratio(rb-rt, rb))
		}
		tr.base.merge(b)
		tr.traced.merge(t)
	}
	tr.overhead = median(over)
	return tr, nil
}

// rateWindows is how many equal windows samples_per_s is the median of.
const rateWindows = 10

// steadyRate is the median, over rateWindows equal windows of the phase,
// of verified samples delivered per second.
func steadyRate(ph *phase) float64 {
	width := ph.wall / rateWindows
	if width <= 0 {
		return 0
	}
	counts := make([]float64, rateWindows)
	for _, d := range ph.done {
		if w := int(d.at.Sub(ph.start) / width); w < rateWindows {
			counts[w] += float64(d.n)
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// latencies returns the phase's latencies (ms) in completion order.
func (p *phase) latencies() []float64 {
	sort.Slice(p.done, func(a, b int) bool { return p.done[a].at.Before(p.done[b].at) })
	out := make([]float64, len(p.done))
	for i, d := range p.done {
		out[i] = d.lat
	}
	return out
}

// endToEndValues takes each metric's median over the stacks' phases.
func endToEndValues(phases []*phase, times []setupTimes) (map[string]float64, error) {
	var rate, cpu, p50, p90 []float64
	for _, ph := range phases {
		lat := ph.latencies()
		v50, ok50 := steadyPercentile(lat, 0.50)
		v90, ok90 := steadyPercentile(lat, 0.90)
		if !ok50 || !ok90 || ph.samples == 0 {
			return nil, fmt.Errorf("%d latency samples are too few for a p90 with ten beyond it; raise --seconds", len(lat))
		}
		rate = append(rate, steadyRate(ph))
		cpu = append(cpu, float64(ph.cpu.Microseconds())/float64(ph.samples))
		p50 = append(p50, v50)
		p90 = append(p90, v90)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":           median(setupField(times, func(t setupTimes) time.Duration { return t.total })),
		"samples_per_s":     median(rate),
		"cpu_us_per_sample": median(cpu),
		"latency_p50_ms":    median(p50),
		"latency_p90_ms":    median(p90),
		"peak_rss_mb":       rss,
	}, nil
}

func setupField(times []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = f(t).Seconds()
	}
	return out
}

// perLayerValues computes every per-layer metric from the traced slices:
// span durations from the benchmark's wrappers, and deltas of the inner
// layers' counters summed over the windows around the traced slices.
func (st *stack) perLayerValues(run *tracedRun, times []setupTimes) map[string]float64 {
	base, tr, ws, rec := run.base, run.traced, run.windows, run.rec
	samples := float64(tr.samples)
	epochs := samples / float64(st.spec.NumFiles)
	sum := func(f func(a, b *counters) float64) float64 {
		var t float64
		for _, w := range ws {
			t += f(w.c0, w.c1)
		}
		return t
	}
	delta := func(name string, keep func(map[string]string) bool) float64 {
		return sum(func(a, b *counters) float64 { v, _, _ := obsDelta(a, b, name, keep); return v })
	}
	histMean := func(name string, keep func(map[string]string) bool) float64 {
		n := sum(func(a, b *counters) float64 { _, n, _ := obsDelta(a, b, name, keep); return n })
		total := sum(func(a, b *counters) float64 { _, _, s := obsDelta(a, b, name, keep); return s })
		return ratio(total, n)
	}
	count := func(f func(c *counters) uint64) float64 {
		return sum(func(a, b *counters) float64 { return float64(f(b) - f(a)) })
	}
	meanMs := func(name string) float64 { return mean(rec.durations(name)) }

	rg := rec.durations("epoch.read_group")
	groups := float64(rec.distinctIDs("epoch.read_group"))

	hits := count(func(c *counters) uint64 { return c.fast.hits })
	misses := count(func(c *counters) uint64 { return c.fast.misses })
	tierSpillHits := count(func(c *counters) uint64 { return c.tier.Hits })
	// A read that finds its object evicted from the fast tier between the
	// index probe and the copy falls through to the spill tier without
	// counting a miss, so the difference can dip below zero when nothing
	// reaches the store.
	storeReads := max(0, misses-tierSpillHits)

	local := count(func(c *counters) uint64 { return c.peer.LocalHits.Load() })
	peer := count(func(c *counters) uint64 { return c.peer.PeerReads.Load() })
	fallback := count(func(c *counters) uint64 { return c.peer.ServerFallback.Load() })
	cacheReads := local + peer + fallback

	chunkReads := count(func(c *counters) uint64 { return c.exec.chunkReads })
	rangeReads := count(func(c *counters) uint64 { return c.exec.rangeReads })

	wall, accounted := rec.reconcile()
	last := ws[len(ws)-1].c1

	deploy := median(setupField(times, func(t setupTimes) time.Duration { return t.deploy }))
	ingest := median(setupField(times, func(t setupTimes) time.Duration { return t.ingest }))

	return map[string]float64{
		"epoch.next_wait_us_mean":           ratio(float64(tr.next.Microseconds()), samples),
		"epoch.stall_frac":                  ratio(tr.next.Seconds(), tr.consumerWall.Seconds()),
		"epoch.read_group_ms_p50":           layerPercentile("epoch.read_group_ms_p50", rg, 0.50),
		"epoch.read_group_ms_p99":           layerPercentile("epoch.read_group_ms_p99", rg, 0.99),
		"epoch.read_group_calls_per_group":  ratio(float64(len(rg)), groups),
		"epoch.hedges":                      delta("diesel_epoch_hedges_total", nil),
		"epoch.hedge_wins":                  delta("diesel_epoch_hedge_wins_total", nil),
		"epoch.hedge_wasted":                delta("diesel_epoch_hedge_wasted_total", nil),
		"epoch.chunk_fallbacks":             delta("diesel_epoch_chunk_fallbacks_total", nil),
		"client.get_chunk_ms_mean":          meanMs("client.get_chunk"),
		"client.get_ms_mean":                meanMs("client.get"),
		"client.get_batch_ms_mean":          meanMs("client.get_batch"),
		"client.flush_ms_mean":              meanMs("client.flush"),
		"client.snapshot_ms":                1e3 * median(setupField(times, func(t setupTimes) time.Duration { return t.snapshot })),
		"client.retries":                    delta("diesel_client_retries_total", nil),
		"wire.call_us_mean":                 1e6 * histMean("diesel_wire_call_seconds", nil),
		"wire.frames_per_sample":            ratio(delta("diesel_wire_frames_total", nil), samples),
		"wire.bytes_per_sample":             ratio(delta("diesel_wire_bytes_total", nil), samples),
		"wire.redials":                      delta("diesel_wire_redials_total", nil),
		"wire.call_timeouts":                delta("diesel_wire_call_timeouts_total", nil),
		"server.served_us_mean":             1e6 * histMean("diesel_wire_served_seconds", dieselServerMethod),
		"server.exec_chunk_reads":           chunkReads,
		"server.exec_range_reads":           rangeReads,
		"server.exec_merge_frac":            ratio(chunkReads, chunkReads+rangeReads),
		"server.fair_waits":                 delta("diesel_job_fair_waits_total", nil),
		"server.rpc_errors":                 delta("diesel_wire_errors_total", dieselServerMethod),
		"objstore.fast_hit_frac":            ratio(hits, hits+misses),
		"objstore.store_reads":              storeReads,
		"objstore.store_reads_per_group":    ratio(storeReads, groups),
		"objstore.spill_hit_frac":           ratio(tierSpillHits, hits+misses),
		"objstore.spill_demotions":          count(func(c *counters) uint64 { return c.tier.Demotions }),
		"kvstore.ops":                       delta("diesel_kv_ops_total", nil),
		"kvstore.call_us_mean":              1e6 * histMean("diesel_kv_call_seconds", nil),
		"kvstore.ops_per_flush":             ratio(delta("diesel_kv_ops_total", labelIs("op", "set", "mset", "del")), float64(tr.flushes)),
		"kvstore.retries":                   delta("diesel_kv_retries_total", nil),
		"dcache.read_us_mean":               1e3 * meanMs("dcache.read"),
		"dcache.local_frac":                 ratio(local, cacheReads),
		"dcache.peer_frac":                  ratio(peer, cacheReads),
		"dcache.fallback_frac":              ratio(fallback, cacheReads),
		"dcache.chunk_loads_per_epoch":      ratio(count(func(c *counters) uint64 { return c.peer.ChunkLoads.Load() }), epochs),
		"dcache.evictions_per_epoch":        ratio(count(func(c *counters) uint64 { return c.peer.Evictions.Load() }), epochs),
		"spill.hit_frac":                    ratio(count(func(c *counters) uint64 { return c.spill.Hits }), local+peer),
		"spill.promotions_per_epoch":        ratio(count(func(c *counters) uint64 { return c.spill.Promotions }), epochs),
		"spill.demotions_per_epoch":         ratio(count(func(c *counters) uint64 { return c.spill.Demotions }), epochs),
		"spill.demoted_bytes_per_read_byte": ratio(count(func(c *counters) uint64 { return c.spill.DemotedBytes }), float64(tr.bytes)),
		"spill.disk_mb":                     float64(last.spill.DiskBytes) / (1 << 20),
		"shuffle.plan_ms":                   mean(tr.planMs),
		"shuffle.working_set_chunks":        float64(tr.workSet),
		"setup.deploy_s":                    deploy,
		"setup.ingest_files_per_s":          ratio(float64(st.spec.NumFiles), ingest),
		"setup.warm_s":                      median(setupField(times, func(t setupTimes) time.Duration { return t.warm })),
		"runtime.alloc_bytes_per_sample":    ratio(count(func(c *counters) uint64 { return c.mem.TotalAlloc }), samples),
		"runtime.gc_cycles":                 count(func(c *counters) uint64 { return uint64(c.mem.NumGC) }),
		"runtime.gc_pause_ms":               count(func(c *counters) uint64 { return c.mem.PauseTotalNs }) / 1e6,
		"rw.write_p50_ms":                   layerPercentile("rw.write_p50_ms", tr.writeLat, 0.50),
		"rw.write_p90_ms":                   layerPercentile("rw.write_p90_ms", tr.writeLat, 0.90),
		"bench.latency_p99_ms":              layerPercentile("bench.latency_p99_ms", base.latencies(), 0.99),
		"bench.failed_frac":                 0, // set once the read-back is done
		"bench.trace_overhead_frac":         run.overhead,
		"bench.residual_frac":               ratio((wall - accounted).Seconds(), wall.Seconds()),
	}
}
