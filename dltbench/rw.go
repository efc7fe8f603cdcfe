package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/trace"
)

const (
	// executors is the number of closed-loop clients: at most nproc (2
	// on the machine the benchmark was sized on), so the benchmark never
	// needs more CPUs than the system under test shares with it.
	executors = 2
	// The read mix is the repository's default load mix (loadgen and
	// diesel-load "get=6,batch=2,chunk=1"): Get of one random file,
	// GetBatch of batchFiles random files, GetChunk of one random whole
	// chunk, weighted 6:2:1.
	getWeight, batchWeight, chunkWeight = 6, 2, 1
	batchFiles                          = 8
	// writeFrac of the operations are writes of writeFiles files (Put
	// each, then Flush). This share has no measured source: it is small
	// so reads dominate, and nonzero so the write path does work.
	writeFrac  = 0.02
	writeFiles = 4
	writeSize  = 2 << 10
	writesSet  = "rw-writes"
)

type opKind uint8

const (
	opGet opKind = iota
	opBatch
	opChunk
	opWrite
)

// drawOp draws the next operation kind from the mix.
func drawOp(rng *rand.Rand) opKind {
	if rng.Float64() < writeFrac {
		return opWrite
	}
	switch x := rng.Intn(getWeight + batchWeight + chunkWeight); {
	case x < getWeight:
		return opGet
	case x < getWeight+batchWeight:
		return opBatch
	default:
		return opChunk
	}
}

// writeSpec is the oracle for acknowledged writes: write-spec file j is
// written once, to writesSet, and read back at the end of the run.
func writeSpec(seed int64) trace.Spec {
	return trace.Spec{Name: writesSet, NumFiles: 1 << 24, Classes: 1,
		MeanFileSize: writeSize, SizeSpread: 0.5, Seed: seed + 1}
}

// runRW runs one phase closed-loop: each executor draws its operations
// from its own seeded sequence and sends the next as soon as the
// previous one completes, until the phase's time is up (or, with a
// count, until it has run its share of count operations).
func (st *stack) runRW(rec *recorder, b budget, phaseNo int, out *phase) {
	parts := make([]*phase, executors)
	var wg sync.WaitGroup
	start := time.Now()
	out.start = start
	cpu0 := cpuTime()
	for e := range executors {
		parts[e] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.executor(rec, e, b, phaseNo, start, parts[e])
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	for _, p := range parts {
		out.merge(p)
	}
}

// executor is one closed-loop client. Traced, its wall time is a
// "consumer" span whose children are its operations (rw.op, with the
// client calls and verification under them) and the preparation of write
// payloads (rw.prep).
func (st *stack) executor(rec *recorder, e int, b budget, phaseNo int, start time.Time, out *phase) {
	cl := st.execs[e]
	ds := cl.DefaultDataset()
	wds, err := cl.Dataset(writesSet)
	if err != nil {
		st.outcome(1, fmt.Errorf("open %s: %w", writesSet, err))
		return
	}
	rng := rand.New(rand.NewSource(st.o.seed*7919 + int64(phaseNo)*31 + int64(e)))
	ws := writeSpec(st.o.seed)
	ctx := context.Background()
	deadline := start.Add(b.dur)
	root := rec.start("consumer", uint64(e), -1)
	// call times one client call as a child span of the operation.
	call := func(name string, id uint64, parent int32, fn func() error) error {
		i := rec.start(name, id, parent)
		err := fn()
		rec.end(i)
		return err
	}
	for n := 0; ; n++ {
		if b.count > 0 && n >= b.count/executors || b.count == 0 && !time.Now().Before(deadline) {
			break
		}
		id := uint64(e)<<40 | uint64(n)
		kind := drawOp(rng)
		// file is what the operation targets: the file a Get reads, the
		// chunk index a GetChunk reads, or the first write-spec file a
		// write puts.
		file := rng.Intn(st.spec.NumFiles)
		var paths []string
		switch kind {
		case opGet:
			paths = []string{st.spec.FileName(file)}
		case opBatch:
			for range batchFiles {
				paths = append(paths, st.spec.FileName(rng.Intn(st.spec.NumFiles)))
			}
		case opChunk:
			file = rng.Intn(len(st.snap.Chunks))
		}
		var data [][]byte
		if kind == opWrite {
			// The payloads are the benchmark's, made before the operation.
			p := rec.start("rw.prep", id, root)
			file = int(st.nextWrite.Add(writeFiles)) - writeFiles
			for j := file; j < file+writeFiles; j++ {
				data = append(data, ws.FileData(j))
			}
			rec.end(p)
		}

		op := rec.start("rw.op", id, root)
		verified := out.samples
		begin := time.Now()
		var opErr error
		switch kind {
		case opGet:
			var b []byte
			opErr = call("client.get", id, op, func() (err error) {
				b, err = ds.Get(ctx, paths[0])
				return err
			})
			if opErr == nil {
				opErr = st.check(rec, id, op, out, paths[0], b)
			}
		case opBatch:
			var bs [][]byte
			opErr = call("client.get_batch", id, op, func() (err error) {
				bs, err = ds.GetBatch(ctx, paths)
				return err
			})
			if opErr == nil && len(bs) != len(paths) {
				opErr = fmt.Errorf("GetBatch returned %d files for %d paths", len(bs), len(paths))
			}
			for k := 0; opErr == nil && k < len(bs); k++ {
				opErr = st.check(rec, id, op, out, paths[k], bs[k])
			}
		case opChunk:
			var blob []byte
			opErr = call("client.get_chunk", id, op, func() (err error) {
				blob, err = ds.GetChunk(ctx, st.snap.Chunks[file].ID.String())
				return err
			})
			if opErr == nil {
				opErr = st.checkChunk(rec, id, op, out, file, blob)
			}
		case opWrite:
			for k := 0; opErr == nil && k < len(data); k++ {
				path := ws.FileName(file + k)
				opErr = call("client.put", id, op, func() error { return wds.Put(path, data[k]) })
			}
			if opErr == nil {
				opErr = call("client.flush", id, op, wds.Flush)
			}
			if opErr == nil {
				out.flushes++
				st.ackMu.Lock()
				st.acked = append(st.acked, file)
				st.ackMu.Unlock()
			}
			out.writeLat = append(out.writeLat, ms(time.Since(begin)))
		}
		if kind != opWrite {
			out.done = append(out.done, delivery{time.Now(), out.samples - verified, ms(time.Since(begin))})
		}
		rec.end(op)
		st.outcome(1, opErr)
	}
	rec.end(root)
	out.consumerWall += time.Since(start)
}

// check verifies one read file (timed as verification, with the test
// corrupter applied when the run is wrapped).
func (st *stack) check(rec *recorder, id uint64, parent int32, out *phase, path string, b []byte) error {
	if rec != nil {
		b = st.bad.apply(b)
	}
	s := rec.start("verify", id, parent)
	i, ok := fileIndex(path)
	err := fmt.Errorf("unexpected path %q", path)
	if ok {
		err = st.verify(i, b)
	}
	rec.end(s)
	if err != nil {
		return err
	}
	out.samples++
	out.bytes += int64(len(b))
	return nil
}

// checkChunk verifies every file of a whole-chunk read at the offsets
// the snapshot gives for chunk ci.
func (st *stack) checkChunk(rec *recorder, id uint64, parent int32, out *phase, ci int, blob []byte) error {
	ck, err := chunk.Parse(blob)
	if err != nil {
		return fmt.Errorf("chunk %d: %w", ci, err)
	}
	pay := ck.Payload()
	files := st.snap.FilesInChunk(ci)
	if len(files) == 0 {
		return fmt.Errorf("chunk %d holds no files", ci)
	}
	for _, f := range files {
		m := st.snap.FileMetaAt(int(f))
		if m.Offset+m.Length > uint64(len(pay)) {
			return fmt.Errorf("chunk %d: file %d lies beyond its payload", ci, f)
		}
		if err := st.check(rec, id, parent, out, st.snap.FileName(int(f)), pay[m.Offset:m.Offset+m.Length]); err != nil {
			return err
		}
	}
	return nil
}

// warmRW fills the server's tiers: every chunk is read whole once (the
// fast tier keeps half, its evictions demote to the spill tier), then a
// short closed-loop interval warms connections and pools.
func (st *stack) warmRW() error {
	ds := st.execs[0].DefaultDataset()
	for _, c := range st.snap.Chunks {
		if _, err := ds.GetChunk(context.Background(), c.ID.String()); err != nil {
			return fmt.Errorf("warm chunk %s: %w", c.ID, err)
		}
	}
	st.runRW(nil, budget{dur: 500 * time.Millisecond}, 0, &phase{})
	return nil
}

// readBack reads every acknowledged write and checks it against the
// write oracle.
func (st *stack) readBack() error {
	if len(st.execs) == 0 {
		return nil
	}
	wds, err := st.execs[0].Dataset(writesSet)
	if err != nil {
		return err
	}
	ws := writeSpec(st.o.seed)
	for _, first := range st.acked {
		for j := first; j < first+writeFiles; j++ {
			b, err := wds.Get(context.Background(), ws.FileName(j))
			if err == nil {
				err = ws.Verify(j, b)
			}
			if err != nil {
				err = fmt.Errorf("read back acknowledged write %d: %w", j, err)
			}
			st.outcome(1, err)
		}
	}
	return nil
}
