package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/trace"
)

const (
	dataset     = "bench"
	chunkTarget = 128 << 10
	// storeLatency models the slow tier's per-operation cost (an HDD or
	// remote object store request) in the epoch workloads.
	storeLatency = 2 * time.Millisecond
	// The epoch-server store's deterministic straggler: every
	// slowEvery-th operation takes slowExtra more, the tail that hedged
	// group fetches exist to hide.
	slowEvery = 64
	slowExtra = 20 * time.Millisecond
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64 // measured time; with trace, alternating untraced and traced slices
	trace    bool
	files    int // dataset size in files (8 KiB ±50% each)
	setups   int // set-ups per run; setup_s and the untraced metrics are medians over them
	dir      string
	spans    string // where the traced run writes its spans

	// Fixed-size runs (tests): when count > 0 a phase is count steady
	// epochs per consumer (epoch-*) or count operations (random-rw)
	// instead of a time budget.
	count      int
	batch      int           // samples per iteration (0 = batchSize)
	corrupt    int64         // wrappers corrupt every n-th payload (tests)
	dropSpan   string        // the traced run does not record spans of this name (tests)
	hedgeFloor time.Duration // epoch-server hedge delay floor (0 = the reader's default)
}

// stack is one deployed system plus the loaded inputs.
type stack struct {
	o    *options
	spec trace.Spec
	data [][]byte // spec.FileData(i), the content oracle
	dir  string

	dep      *core.Deployment
	throttle *objstore.Throttled
	writer   *client.Client // ingest connection
	snap     *meta.Snapshot

	// epoch-server
	trainer *client.Client
	// epoch-cache
	task *core.Task
	// random-rw
	execs []*client.Client

	consumers []*consumer  // epoch-* trainers (one per rank)
	nextWrite atomic.Int64 // next unused write-spec index
	ackMu     sync.Mutex
	acked     []int      // first write-spec index of each acknowledged write
	bad       *corrupter // test-only payload corruption in the wrappers
	tally     *tally
}

// tally counts attempted operations and failures over every set-up and
// phase of a run. A failure is any error or content mismatch.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // the first few, for stderr
}

func (t *tally) counts() (attempted, failed int, failures []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, append([]string(nil), t.failures...)
}

// setupTimes are the timed phases of one set-up.
type setupTimes struct {
	deploy, ingest, snapshot, warm, total time.Duration
}

func newSpec(o *options) trace.Spec {
	return trace.Spec{
		Name: dataset, NumFiles: o.files, Classes: max(1, o.files/64),
		MeanFileSize: 8 << 10, SizeSpread: 0.5, Seed: o.seed,
	}
}

// fileIndex recovers the spec index from a file path
// (".../img<index>.bin"); the oracle then decides whether the bytes are
// that file's.
func fileIndex(path string) (int, bool) {
	i := strings.LastIndex(path, "/img")
	if i < 0 || !strings.HasSuffix(path, ".bin") {
		return 0, false
	}
	n, err := strconv.Atoi(path[i+4 : len(path)-4])
	return n, err == nil
}

// verify checks b against the content oracle: byte-exact against
// trace.Spec.FileData(i), with Spec.Verify naming what is wrong.
func (st *stack) verify(i int, b []byte) error {
	if i < 0 || i >= len(st.data) {
		return fmt.Errorf("file index %d out of range", i)
	}
	if bytes.Equal(b, st.data[i]) {
		return nil
	}
	if err := st.spec.Verify(i, b); err != nil {
		return err
	}
	return fmt.Errorf("file %d: bytes differ from the oracle", i)
}

// outcome records attempted operations and, when err is set, a failure.
func (st *stack) outcome(attempted int, err error) {
	t := st.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	if err != nil {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

func (st *stack) peers() []*dcache.Peer {
	if st.task == nil {
		return nil
	}
	return st.task.Peers
}

// setup deploys the workload's stack, ingests the dataset, downloads the
// snapshot and warms up. The returned stack is ready to measure.
func setup(o *options, spec trace.Spec, data [][]byte, k int, tl *tally) (*stack, setupTimes, error) {
	var t setupTimes
	dir := filepath.Join(o.dir, fmt.Sprintf("setup%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, t, err
	}
	st := &stack{o: o, spec: spec, data: data, dir: dir, bad: &corrupter{n: o.corrupt}, tally: tl}
	total := spec.TotalBytes()

	begin := time.Now()
	var cfg core.Config
	switch o.workload {
	case "epoch-server":
		// The server's fast tier holds a quarter of the dataset and there
		// is no spill: most group fetches reach the modeled store.
		cfg.SSDCacheBytes = total / 4
		cfg.Throttle = &objstore.Throttled{Latency: storeLatency}
	case "epoch-cache":
		cfg.Throttle = &objstore.Throttled{Latency: storeLatency}
	case "random-rw":
		// Half the dataset fits the fast tier, the rest its spill tier:
		// after warm-up no read reaches the store. The store has no
		// modeled latency, so a write costs the write path itself and the
		// closed loop stays CPU-bound instead of sleeping.
		cfg.SSDCacheBytes = total / 2
		cfg.CacheSpillDir = filepath.Join(dir, "server-spill")
	}
	st.throttle = cfg.Throttle
	dep, err := core.Deploy(cfg)
	if err != nil {
		return nil, t, fmt.Errorf("deploy: %w", err)
	}
	st.dep = dep
	t.deploy = time.Since(begin)

	mark := time.Now()
	if err := st.ingest(); err != nil {
		st.close()
		return nil, t, err
	}
	t.ingest = time.Since(mark)

	mark = time.Now()
	if err := st.connect(); err != nil {
		st.close()
		return nil, t, err
	}
	t.snapshot = time.Since(mark)

	mark = time.Now()
	if err := st.warm(); err != nil {
		st.close()
		return nil, t, err
	}
	t.warm = time.Since(mark)
	t.total = time.Since(begin)
	return st, t, nil
}

// ingest writes the dataset through one client in 128 KiB chunks.
func (st *stack) ingest() error {
	w, err := client.Connect(client.Options{
		User: "bench", Servers: st.dep.ServerAddrs(), Dataset: dataset,
		ChunkTarget: chunkTarget,
	})
	if err != nil {
		return fmt.Errorf("connect writer: %w", err)
	}
	st.writer = w
	ds := w.DefaultDataset()
	for i, b := range st.data {
		if err := ds.Put(st.spec.FileName(i), b); err != nil {
			return fmt.Errorf("ingest %d: %w", i, err)
		}
	}
	if err := ds.Flush(); err != nil {
		return fmt.Errorf("ingest flush: %w", err)
	}
	return nil
}

// connect opens the workload's reading connections and downloads their
// metadata snapshots (StartTask does both for the task's clients).
func (st *stack) connect() error {
	srv := st.dep.ServerAddrs()
	switch st.o.workload {
	case "epoch-server":
		cl, err := client.Connect(client.Options{
			User: "bench", Servers: srv, Dataset: dataset, JobID: "epoch-server", Rank: 1,
		})
		if err != nil {
			return fmt.Errorf("connect trainer: %w", err)
		}
		st.trainer = cl
		if st.snap, err = cl.DefaultDataset().DownloadSnapshot(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	case "epoch-cache":
		// Two simulated nodes with one client each; each node's master
		// holds an eighth of the dataset in RAM and spills the rest.
		task, err := st.dep.StartTask(core.TaskConfig{
			Dataset: dataset, Nodes: 2, ClientsPerNode: 1,
			Policy: dcache.OnDemand, CapacityBytes: st.spec.TotalBytes() / 8,
			JobID: "epoch-cache", SpillDir: filepath.Join(st.dir, "dcache-spill"),
		})
		if err != nil {
			return fmt.Errorf("start task: %w", err)
		}
		st.task = task
		st.snap = task.Clients[0].DefaultDataset().Snapshot()
	case "random-rw":
		for e := range executors {
			cl, err := client.Connect(client.Options{
				User: "bench", Servers: srv, Dataset: dataset, Rank: 1 + e,
			})
			if err != nil {
				return fmt.Errorf("connect executor: %w", err)
			}
			st.execs = append(st.execs, cl)
			snap, err := cl.DefaultDataset().DownloadSnapshot()
			if err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			st.snap = snap
		}
	}
	return nil
}

// warm brings the stack to steady state: one epoch per consumer for the
// epoch workloads, a whole-chunk sweep plus a short closed-loop interval
// for random-rw.
func (st *stack) warm() error {
	switch st.o.workload {
	case "epoch-server", "epoch-cache":
		st.newConsumers()
		if err := st.runEpochs(nil, budget{count: 1}, &phase{}); err != nil {
			return err
		}
		// The straggler starts after ingest and warm-up so neither is
		// slowed by it; it is part of the measured phases only.
		if st.o.workload == "epoch-server" {
			st.throttle.SetSlowEvery(slowEvery, slowExtra)
		}
		return nil
	default:
		return st.warmRW()
	}
}

func (st *stack) close() {
	if st.task != nil {
		st.task.Close()
	}
	for _, c := range append([]*client.Client{st.writer, st.trainer}, st.execs...) {
		if c != nil {
			c.Close()
		}
	}
	if st.dep != nil {
		st.dep.Close()
	}
	os.RemoveAll(st.dir)
}
