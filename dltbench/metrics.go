package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"diesel/internal/dcache"
	"diesel/internal/objstore"
	"diesel/internal/obs"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's metric contract: BENCHMARK.json lists the same
// names and units (bench_test.go checks that they agree).
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees; every workload reports
// every one of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // deploy + ingest + snapshot + warm-up, median of the run's set-ups
	{"samples_per_s", "1/s"},    // verified samples delivered per second of the measured phase
	{"cpu_us_per_sample", "us"}, // process CPU time per verified sample
	{"latency_p50_ms", "ms"},    // iteration wait in Reader.Next (epoch-*), read operation latency (random-rw)
	{"latency_p90_ms", "ms"},    // the same, 90th percentile
	{"peak_rss_mb", "MB"},       // VmHWM of the benchmark process
}

// perLayer is measured by the traced run, from the benchmark's wrappers
// around the public seams and from counter deltas. A layer a workload
// does not load reads 0.
var perLayer = []metricDef{
	{"epoch.next_wait_us_mean", "us"},
	{"epoch.stall_frac", "frac"},
	{"epoch.read_group_ms_p50", "ms"},
	{"epoch.read_group_ms_p99", "ms"},
	{"epoch.read_group_calls_per_group", "ratio"},
	{"epoch.hedges", "count"},
	{"epoch.hedge_wins", "count"},
	{"epoch.hedge_wasted", "count"},
	{"epoch.chunk_fallbacks", "count"},
	{"client.get_chunk_ms_mean", "ms"},
	{"client.get_ms_mean", "ms"},
	{"client.get_batch_ms_mean", "ms"},
	{"client.flush_ms_mean", "ms"},
	{"client.snapshot_ms", "ms"},
	{"client.retries", "count"},
	{"wire.call_us_mean", "us"},
	{"wire.frames_per_sample", "ratio"},
	{"wire.bytes_per_sample", "B"},
	{"wire.redials", "count"},
	{"wire.call_timeouts", "count"},
	{"server.served_us_mean", "us"},
	{"server.exec_chunk_reads", "count"},
	{"server.exec_range_reads", "count"},
	{"server.exec_merge_frac", "frac"},
	{"server.fair_waits", "count"},
	{"server.rpc_errors", "count"},
	{"objstore.fast_hit_frac", "frac"},
	{"objstore.store_reads", "count"},
	{"objstore.store_reads_per_group", "ratio"},
	{"objstore.spill_hit_frac", "frac"},
	{"objstore.spill_demotions", "count"},
	{"kvstore.ops", "count"},
	{"kvstore.call_us_mean", "us"},
	{"kvstore.ops_per_flush", "ratio"},
	{"kvstore.retries", "count"},
	{"dcache.read_us_mean", "us"},
	{"dcache.local_frac", "frac"},
	{"dcache.peer_frac", "frac"},
	{"dcache.fallback_frac", "frac"},
	{"dcache.chunk_loads_per_epoch", "ratio"},
	{"dcache.evictions_per_epoch", "ratio"},
	{"spill.hit_frac", "frac"},
	{"spill.promotions_per_epoch", "ratio"},
	{"spill.demotions_per_epoch", "ratio"},
	{"spill.demoted_bytes_per_read_byte", "ratio"},
	{"spill.disk_mb", "MB"},
	{"shuffle.plan_ms", "ms"},
	{"shuffle.working_set_chunks", "count"},
	{"setup.deploy_s", "s"},
	{"setup.ingest_files_per_s", "1/s"},
	{"setup.warm_s", "s"},
	{"runtime.alloc_bytes_per_sample", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"rw.write_p50_ms", "ms"},
	{"rw.write_p90_ms", "ms"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.failed_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.residual_frac", "frac"},
}

// percentile returns the nearest-rank q-quantile of the raw samples
// (sorted in place). ok is false unless at least ten samples lie beyond
// it: a tail percentile resting on fewer points is noise, and the old
// bucket-interpolated quantiles are exactly what this replaces.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, false
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return xs[rank-1], true
}

// maxSlices bounds how many consecutive slices steadyPercentile cuts a
// run into.
const maxSlices = 8

// steadyPercentile cuts xs (in completion order) into the most
// consecutive equal slices, up to maxSlices, that each keep ten samples
// beyond their q-quantile, and returns the median of the slices'
// q-quantiles: a disturbed stretch of the run moves one slice, not the
// result. ok is false when not even one slice qualifies.
func steadyPercentile(xs []float64, q float64) (float64, bool) {
	need := int(math.Ceil(10 / (1 - q)))
	k := min(maxSlices, len(xs)/need)
	if k == 0 {
		return 0, false
	}
	vals := make([]float64, k)
	for i := range k {
		slice := append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...)
		v, ok := percentile(slice, q)
		if !ok {
			return 0, false
		}
		vals[i] = v
	}
	return median(vals), true
}

// layerPercentile is percentile for per-layer metrics: a layer with too
// few samples reads 0 and says so on stderr instead of failing the run.
func layerPercentile(name string, xs []float64, q float64) float64 {
	v, ok := percentile(xs, q)
	if !ok && len(xs) > 0 {
		fmt.Fprintf(os.Stderr, "dltbench: %s: %d samples are too few for p%g; reported as 0\n",
			name, len(xs), q*100)
	}
	return v
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// counters is one reading of every inner-layer count the per-layer
// metrics are deltas of: the process-wide obs registry plus the stats
// accessors of the stack's components.
type counters struct {
	obs   map[string]obs.Metric
	peer  dcache.Stats // sums over the task's peers (zero without a task)
	spill dcache.SpillStats
	fast  struct{ hits, misses uint64 }
	tier  objstore.TieredSpillStats
	exec  struct{ chunkReads, rangeReads uint64 }
	mem   runtime.MemStats
}

func readCounters(st *stack) *counters {
	c := &counters{obs: make(map[string]obs.Metric)}
	for _, m := range obs.Default().Export() {
		c.obs[metricKey(m)] = m
	}
	for _, p := range st.peers() {
		c.peer.LocalHits.Add(p.Stats.LocalHits.Load())
		c.peer.PeerReads.Add(p.Stats.PeerReads.Load())
		c.peer.ServerFallback.Add(p.Stats.ServerFallback.Load())
		c.peer.ChunkLoads.Add(p.Stats.ChunkLoads.Load())
		c.peer.Evictions.Add(p.Stats.Evictions.Load())
		s := p.SpillStats()
		c.spill.Hits += s.Hits
		c.spill.Promotions += s.Promotions
		c.spill.Demotions += s.Demotions
		c.spill.DemotedBytes += s.DemotedBytes
		c.spill.DiskBytes += s.DiskBytes
	}
	if t := st.dep.Tiered(); t != nil {
		c.fast.hits, c.fast.misses = t.HitCount(), t.MissCount()
		c.tier = t.SpillStats()
	}
	ex := &st.dep.Server().Exec.Stats
	c.exec.chunkReads, c.exec.rangeReads = ex.ChunkReads.Load(), ex.RangeReads.Load()
	runtime.ReadMemStats(&c.mem)
	return c
}

func metricKey(m obs.Metric) string {
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(m.Name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + m.Labels[k])
	}
	return b.String()
}

// obsDelta sums, over every series of family name whose labels pass keep
// (nil keeps all), the change in value (counters) or in count and sum
// (histograms) between two readings.
func obsDelta(a, b *counters, name string, keep func(map[string]string) bool) (value, count, sum float64) {
	for k, m := range b.obs {
		if m.Name != name || (keep != nil && !keep(m.Labels)) {
			continue
		}
		prev := a.obs[k] // zero when the series appeared during the phase
		value += m.Value - prev.Value
		count += float64(m.Count) - float64(prev.Count)
		sum += m.Sum - prev.Sum
	}
	return value, count, sum
}

func labelIs(key string, vals ...string) func(map[string]string) bool {
	return func(l map[string]string) bool {
		for _, v := range vals {
			if l[key] == v {
				return true
			}
		}
		return false
	}
}

// dieselServerMethod keeps the DIESEL server's RPC methods, leaving out
// the KV nodes and cache masters that share the wire transport.
func dieselServerMethod(l map[string]string) bool { return strings.HasPrefix(l["method"], "dsl.") }
