package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
	"time"

	"diesel/internal/client"
	"diesel/internal/epoch"
	"diesel/internal/shuffle"
)

const (
	batchSize = 128 // samples per training iteration (about two shuffle groups)
	groupSize = 4   // chunks per shuffle group
	parallel  = 2   // concurrent fetches per group fetch (nproc)
)

func (o *options) batchLen() int {
	if o.batch > 0 {
		return o.batch
	}
	return batchSize
}

// budget bounds one measured phase: a duration, or (count > 0) a number
// of whole epochs per consumer / operations.
type budget struct {
	dur   time.Duration
	count int
}

// phase is what one measured phase observed.
type phase struct {
	wall     time.Duration // phase start to last consumer or executor done
	samples  int           // verified samples delivered
	bytes    int64         // their payload bytes
	writeLat []float64     // ms: acknowledged writes
	planMs   []float64
	workSet  int
	start    time.Time
	cpu      time.Duration // process CPU time over the phase
	done     []delivery    // iterations (epoch-*) or reads (random-rw)
	flushes  int

	consumerWall time.Duration // the consumers' (or executors') summed wall time
	next         time.Duration // summed time inside Reader.Next
}

// delivery is one iteration (epoch-*) or read (random-rw): when it
// completed, how many verified samples it delivered and its latency (ms):
// the wait inside Reader.Next, or the read operation's latency.
type delivery struct {
	at  time.Time
	n   int
	lat float64
}

func (p *phase) merge(q *phase) {
	p.samples += q.samples
	p.done = append(p.done, q.done...)
	p.bytes += q.bytes
	p.writeLat = append(p.writeLat, q.writeLat...)
	p.planMs = append(p.planMs, q.planMs...)
	p.workSet = max(p.workSet, q.workSet)
	p.flushes += q.flushes
	p.consumerWall += q.consumerWall
	p.next += q.next
}

// consumer is one trainer rank streaming chunk-wise-shuffled epochs.
type consumer struct {
	st      *stack
	rank    int
	ranks   int
	ds      *client.Dataset
	epochNo int
	iter    uint64
	r       *epoch.Reader
	plan    *shuffle.Plan
	seen    int // samples served from the current epoch
	batch   []epoch.Sample
}

func (st *stack) newConsumers() {
	switch st.o.workload {
	case "epoch-server":
		st.consumers = []*consumer{{st: st, ranks: 1, ds: st.trainer.DefaultDataset()}}
	case "epoch-cache":
		for r, cl := range st.task.Clients {
			st.consumers = append(st.consumers,
				&consumer{st: st, rank: r, ranks: len(st.task.Clients), ds: cl.DefaultDataset()})
		}
	}
}

// runEpochs runs every consumer concurrently for one phase. With a nil
// recorder nothing is wrapped.
func (st *stack) runEpochs(rec *recorder, b budget, out *phase) error {
	deadline := time.Now().Add(b.dur)
	start := time.Now()
	out.start = start
	cpu0 := cpuTime()
	parts := make([]*phase, len(st.consumers))
	errs := make([]error, len(st.consumers))
	var wg sync.WaitGroup
	for i, c := range st.consumers {
		parts[i] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.run(rec, b, deadline, parts[i])
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	for _, p := range parts {
		out.merge(p)
	}
	return errors.Join(errs...)
}

// open builds the next epoch's plan and reader. epoch-cache ranks take
// disjoint halves (alternate groups) of the same plan.
func (c *consumer) open(rec *recorder, out *phase) error {
	c.epochNo++
	t := time.Now()
	full, err := c.ds.ShufflePlan(c.st.o.seed*1_000_003+int64(c.epochNo), groupSize)
	if err != nil {
		return fmt.Errorf("shuffle plan: %w", err)
	}
	c.plan = split(full, c.rank, c.ranks)
	out.planMs = append(out.planMs, ms(time.Since(t)))
	out.workSet = max(out.workSet, c.plan.WorkingSetChunks())

	snap := c.st.snap
	var src epoch.Source
	var opts []epoch.Option
	switch c.st.o.workload {
	case "epoch-server":
		var cc epoch.ChunkClient = c.ds
		if rec != nil {
			cc = &tracedChunkClient{inner: cc, rec: rec}
		}
		src = epoch.NewClientSource(cc, snap, parallel)
		opts = append(opts, epoch.WithHedge(nil), epoch.WithHedgeDelayFloor(c.st.o.hedgeFloor))
	case "epoch-cache":
		var fr viewFileReader = c.st.task.Peers[c.rank]
		if rec != nil {
			fr = &tracedViewReader{inner: fr, rec: rec}
		}
		src = epoch.NewCacheSource(fr, snap, parallel)
	}
	if rec != nil {
		src = &tracedSource{inner: src, rec: rec,
			epochID: uint64(c.epochNo*c.ranks + c.rank), bad: c.st.bad}
	}
	c.r = epoch.NewReader(c.plan, snap, src, opts...)
	c.seen = 0
	return nil
}

// split keeps groups rank, rank+ranks, ... of p as a plan of its own.
func split(p *shuffle.Plan, rank, ranks int) *shuffle.Plan {
	if ranks == 1 {
		return p
	}
	out := &shuffle.Plan{}
	for g := rank; g < len(p.Groups); g += ranks {
		gs := p.Groups[g]
		start := len(out.Files)
		out.Files = append(out.Files, p.Files[gs.Start:gs.End]...)
		out.Groups = append(out.Groups, shuffle.GroupSpan{Start: start, End: len(out.Files), Chunks: gs.Chunks})
	}
	return out
}

// finish closes the current epoch's reader. A complete epoch must have
// served every planned sample exactly once.
func (c *consumer) finish(complete bool) {
	err := c.r.Close()
	if complete && err == nil && c.seen != c.plan.NumFiles() {
		err = fmt.Errorf("epoch %d rank %d served %d samples, plan has %d",
			c.epochNo, c.rank, c.seen, c.plan.NumFiles())
	}
	if err != nil && !errors.Is(err, epoch.ErrClosed) {
		c.st.outcome(0, err)
	}
	c.r = nil
}

// run is the training loop: each iteration pulls a batch through
// Reader.Next (timed), then verifies it against the oracle (outside the
// timed section, inside the wall clock). Traced, the loop is a "consumer"
// span whose children are epoch.open, iter (epoch.next and verify) and
// epoch.close.
func (c *consumer) run(rec *recorder, b budget, deadline time.Time, out *phase) error {
	start := time.Now()
	root := rec.start("consumer", uint64(c.rank), -1)
	defer func() {
		rec.end(root)
		out.consumerWall += time.Since(start)
	}()
	epochs := 0
	for {
		if b.count > 0 && epochs >= b.count || b.count == 0 && !time.Now().Before(deadline) {
			break
		}
		if c.r == nil {
			i := rec.start("epoch.open", uint64(c.epochNo+1), root)
			err := c.open(rec, out)
			rec.end(i)
			if err != nil {
				return err
			}
		}
		c.iter++
		id := uint64(c.rank)<<40 | c.iter
		it := rec.start("iter", id, root)

		nx := rec.start("epoch.next", id, it)
		c.batch = c.batch[:0]
		eof := false
		t0 := time.Now()
		for len(c.batch) < c.st.o.batchLen() {
			s, err := c.r.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				c.st.outcome(1, fmt.Errorf("next: %w", err))
				eof = true
				break
			}
			c.batch = append(c.batch, s)
		}
		wait := time.Since(t0)
		rec.end(nx)

		vf := rec.start("verify", id, it)
		for _, s := range c.batch {
			i, ok := fileIndex(s.Path)
			var err error
			if !ok {
				err = fmt.Errorf("unexpected sample path %q", s.Path)
			} else if err = c.st.verify(i, s.Data); err == nil {
				out.samples++
				out.bytes += int64(len(s.Data))
			}
			c.st.outcome(1, err)
		}
		rec.end(vf)
		rec.end(it)

		c.seen += len(c.batch)
		out.next += wait
		if len(c.batch) > 0 {
			out.done = append(out.done, delivery{time.Now(), len(c.batch), ms(wait)})
		}
		if eof {
			i := rec.start("epoch.close", id, root)
			c.finish(true)
			rec.end(i)
			epochs++
		}
	}
	if c.r != nil {
		// A timed phase ends mid-epoch: drop the rest of it so the next
		// phase starts on a fresh reader with its own (un)wrapped source.
		i := rec.start("epoch.close", 0, root)
		c.finish(false)
		rec.end(i)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
