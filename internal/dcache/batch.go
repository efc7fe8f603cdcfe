package dcache

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"diesel/internal/obs"
	"diesel/internal/tracing"
	"diesel/internal/wire"
)

// The cache.get wire format. A request is a run of length-prefixed paths
// filling the payload. The response holds one entry per requested path,
// in request order: a 4-byte big-endian length and that many file bytes,
// or the length absentEntry alone when the master could not serve the
// file (the requester then reads it from the servers). Neither side
// carries a count — the entries fill the payload — so a request or
// response for one path is exactly String(path) / Bytes32(file).
const absentEntry = math.MaxUint32

// cacheGetRespBudget caps the response payload of one cache.get RPC so the
// frame, header included, stays inside the wire's coalescing window:
// batched responses then ride the coalesced write, and the buffers each
// RPC holds on both sides stay window-sized instead of growing with the
// group (uncapped whole-group frames cost peak RSS). A single file larger
// than the budget still goes, alone.
const cacheGetRespBudget = wire.GroupBufSize - 64

var errEmptyCacheGet = errors.New("dcache: empty cache.get request")

// encodeCacheGetReq encodes a cache.get request into a pooled encoder;
// the caller releases it once the payload is sent.
func encodeCacheGetReq(paths []string) *wire.Encoder {
	n := 0
	for _, p := range paths {
		n += 4 + len(p)
	}
	e := wire.AcquireEncoder(n)
	for _, p := range paths {
		e.String(p)
	}
	return e
}

// decodeCacheGetReq decodes a cache.get request. Every path takes at least
// its 4-byte length, so the result is bounded by the payload size.
func decodeCacheGetReq(payload []byte) ([]string, error) {
	if len(payload) == 0 {
		return nil, errEmptyCacheGet
	}
	d := wire.NewDecoder(payload)
	var paths []string
	for d.Remaining() > 0 {
		p := d.String()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("dcache: cache.get request entry %d: %w", len(paths), err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// decodeCacheGetResp decodes a cache.get response for len(out) requested
// paths. Served entries land in out as windows into payload; entries the
// master could not serve stay nil. Nothing is allocated, and every entry
// is validated before out is written, so a truncated response or one
// holding more or fewer entries than requested is an error that leaves
// out untouched.
func decodeCacheGetResp(payload []byte, out [][]byte) error {
	off := 0
	for i := range out {
		if len(payload)-off < 4 {
			return fmt.Errorf("dcache: cache.get response ends at entry %d of %d: %w",
				i, len(out), wire.ErrShortPayload)
		}
		n := binary.BigEndian.Uint32(payload[off:])
		off += 4
		if n == absentEntry {
			continue
		}
		if uint64(n) > uint64(len(payload)-off) {
			return fmt.Errorf("dcache: cache.get response entry %d truncated: %w", i, wire.ErrShortPayload)
		}
		off += int(n)
	}
	if off != len(payload) {
		return fmt.Errorf("dcache: cache.get response has %d bytes past its %d entries",
			len(payload)-off, len(out))
	}
	off = 0
	for i := range out {
		n := binary.BigEndian.Uint32(payload[off:])
		off += 4
		if n == absentEntry {
			continue
		}
		end := off + int(n)
		out[i] = payload[off:end:end]
		off = end
	}
	return nil
}

// handleCacheGet serves a batch of files from this master's cache
// (loading chunks on demand), for requests arriving from peers. A file it
// cannot serve is answered as absent rather than failing the batch, so
// only that file falls back to the servers. The context carries the
// server-side trace span, so an on-demand chunk load triggered by a peer
// read shows up under the requesting peer's trace.
func (p *Peer) handleCacheGet(ctx context.Context, payload []byte) ([]byte, error) {
	paths, err := decodeCacheGetReq(payload)
	if err != nil {
		return nil, err
	}
	// Views are only read while encoding the response, so no copy is
	// needed between cache and encoder — one memcpy per file, into the
	// response payload itself.
	views := make([][]byte, len(paths))
	size := 0
	for i, path := range paths {
		size += 4
		if b, err := p.readLocal(ctx, path, true); err == nil {
			views[i] = nonNil(b)
			size += len(b)
		}
	}
	e := wire.NewEncoder(size)
	for _, b := range views {
		if b == nil {
			e.Uint32(absentEntry)
			continue
		}
		e.Bytes32(b)
	}
	return e.Bytes(), nil
}

// nonNil keeps a served empty file distinguishable from an unserved one.
func nonNil(b []byte) []byte {
	if b == nil {
		return []byte{}
	}
	return b
}

// getFromMaster sends paths to the remote master at addr in one cache.get
// RPC, dialing lazily and pooling connections. Entries the master served
// land in out as owned, mutable windows into the response; the rest stay
// nil.
func (p *Peer) getFromMaster(ctx context.Context, addr string, paths []string, out [][]byte) error {
	pool, err := p.poolFor(addr)
	if err != nil {
		return err
	}
	e := encodeCacheGetReq(paths)
	// The response frame is not borrowed: the files are handed out as
	// windows into it, so it is never copied and never pooled — a group's
	// files keep their frame alive and the GC frees it with the last of
	// them. Borrowing it instead costs a copy per file, and the recycled
	// window-sized bodies stay live in the frame pool on top of those
	// copies, which shows up as peak RSS.
	resp, err := pool.CallContext(ctx, methodCacheGet, e.Bytes())
	e.Release()
	if err != nil {
		return err
	}
	return decodeCacheGetResp(resp, out)
}

// askMaster runs one cache.get RPC against remote master owner and records
// the RPC's liveness outcome on the owner's breaker. An error means the
// whole RPC failed.
func (p *Peer) askMaster(ctx context.Context, owner int, paths []string, out [][]byte) error {
	h := &p.health[owner]
	err := p.getFromMaster(ctx, p.masters[owner].addr, paths, out)
	switch {
	case err == nil:
		if h.succeeded() {
			mMasterRevivals.Inc()
		}
	case wire.IsRemote(err):
		// The master answered; this is an application error, not a
		// liveness signal. Leave the breaker alone and fall back.
		h.succeeded()
	case ctx.Err() != nil:
		// The caller gave up, which says nothing about the master's
		// health. Clear any probe flag without recording an outcome.
		h.aborted()
	default:
		if h.failed(time.Now(), p.cfg.DeadAfter, p.cfg.DeadCooldown) {
			p.Stats.MasterDeaths.Add(1)
			mMasterDeaths.Inc()
			obs.Publish("breaker-trip",
				"cache master marked dead after consecutive transport failures",
				"addr", p.masters[owner].addr, "owner", strconv.Itoa(owner))
		}
	}
	return err
}

// abandons reports whether a cache.get error must fail the read instead
// of falling back to the servers: only when the caller gave up.
func abandons(ctx context.Context, err error) bool {
	return err != nil && !wire.IsRemote(err) && ctx.Err() != nil
}

// batchSpan starts the dcache.read span of one batch of a group read.
func batchSpan(ctx context.Context, branch string, owner, files int) (context.Context, *tracing.Span) {
	sp := tracing.ChildOf(ctx, "dcache.read")
	if sp == nil {
		return ctx, nil
	}
	sp.SetAttr("branch", branch)
	if owner >= 0 {
		sp.SetAttr("owner", strconv.Itoa(owner))
	}
	sp.SetAttr("files", strconv.Itoa(files))
	return tracing.ContextWith(ctx, sp), sp
}

// peerCall is one cache.get RPC of a group read: the files in
// [lo, hi) of the owner-sorted batch, all owned by master owner.
type peerCall struct {
	owner, lo, hi int
	err           error
}

// ReadFilesViewContext reads a batch of files — typically one epoch
// group — under the ReadFileViewContext contract: read-only results, in
// paths order. Instead of one cache.get round trip per remote file, each
// remote owner master gets its files in as few cache.get RPCs as keep
// every response frame inside the wire's coalescing window
// (wire.GroupBufSize), and those RPCs run while this peer's own files are
// read from its store. Files no master could serve are read from the
// DIESEL servers in one GetBatch.
//
// Everything else is ReadFileViewContext's: the breaker records one
// liveness outcome per RPC, a remote application error means server
// fallback, a dead master's files go straight to the servers, and Stats
// and the diesel_dcache_* counters count per file.
func (p *Peer) ReadFilesViewContext(ctx context.Context, paths []string) ([][]byte, error) {
	n := len(paths)
	// Sort the batch by owner (counting sort over the few masters) so each
	// owner's files, and each RPC's, are one contiguous run.
	owner := make([]int, n)
	size := make([]uint64, n)
	start := make([]int, len(p.masters)+1)
	for i, path := range paths {
		m, err := p.snap.Stat(path)
		if err != nil {
			return nil, err
		}
		owner[i], size[i] = p.ownerOf(m.ChunkIdx), m.Length
		start[owner[i]+1]++
	}
	for o := range p.masters {
		start[o+1] += start[o]
	}
	order := make([]int, n) // batch position → index into paths
	sorted := make([]string, n)
	got := make([][]byte, n)
	next := append([]int(nil), start[:len(p.masters)]...)
	for i, o := range owner {
		order[next[o]] = i
		sorted[next[o]] = paths[i]
		next[o]++
	}

	var calls []peerCall
	for o := range p.masters {
		lo, hi := start[o], start[o+1]
		if o == p.selfIdx || lo == hi || !p.health[o].tryUse(time.Now()) {
			continue // local files, no files, or a dead master's: read below
		}
		resp := 0
		for k := lo; k < hi; k++ {
			entry := 4 + int(size[order[k]])
			if k > lo && resp+entry > cacheGetRespBudget {
				calls = append(calls, peerCall{owner: o, lo: lo, hi: k})
				lo, resp = k, 0
			}
			resp += entry
		}
		calls = append(calls, peerCall{owner: o, lo: lo, hi: hi})
	}
	var wg sync.WaitGroup
	for c := range calls {
		wg.Add(1)
		go func(c *peerCall) {
			defer wg.Done()
			ctx, sp := batchSpan(ctx, "peer-master", c.owner, c.hi-c.lo)
			c.err = p.askMaster(ctx, c.owner, sorted[c.lo:c.hi], got[c.lo:c.hi])
			sp.SetError(c.err)
			sp.End()
		}(&calls[c])
	}

	var localErr error
	if p.IsMaster() {
		lo, hi := start[p.selfIdx], start[p.selfIdx+1]
		if lo < hi {
			lctx, sp := batchSpan(ctx, "local", -1, hi-lo)
			hits := 0
			for k := lo; k < hi; k++ {
				b, err := p.readLocal(lctx, sorted[k], true)
				if err == nil {
					got[k] = nonNil(b)
					hits++
				} else if ctx.Err() != nil {
					localErr = err
					break
				}
			}
			p.Stats.LocalHits.Add(uint64(hits))
			mLocalHits.Add(uint64(hits))
			sp.SetError(localErr)
			sp.End()
		}
	}
	wg.Wait()
	if localErr != nil {
		return nil, localErr
	}
	peer := 0
	for _, c := range calls {
		if c.err != nil {
			if abandons(ctx, c.err) {
				return nil, c.err
			}
			continue
		}
		for k := c.lo; k < c.hi; k++ {
			if got[k] != nil {
				peer++
			}
		}
	}
	p.Stats.PeerReads.Add(uint64(peer))
	mPeerReads.Add(uint64(peer))

	out := make([][]byte, n)
	var missed []int // batch positions no master served
	for k, b := range got {
		if b == nil {
			missed = append(missed, k)
			continue
		}
		out[order[k]] = b
	}
	if len(missed) > 0 {
		if err := p.readFallback(ctx, sorted, order, size, missed, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readFallback reads the missed batch positions from the DIESEL servers
// in one GetBatch and places them in out.
func (p *Peer) readFallback(ctx context.Context, sorted []string, order []int, size []uint64, missed []int, out [][]byte) (err error) {
	ctx, sp := batchSpan(ctx, "server-fallback", -1, len(missed))
	defer func() { sp.SetError(err); sp.End() }()
	p.Stats.ServerFallback.Add(uint64(len(missed)))
	mFallbacks.Add(uint64(len(missed)))
	paths := make([]string, len(missed))
	for j, k := range missed {
		paths[j] = sorted[k]
	}
	files, err := p.ds.GetBatch(ctx, paths)
	if err != nil {
		return err
	}
	for j, k := range missed {
		i := order[k]
		if files[j] == nil {
			// GetBatch cannot tell an empty file from a missing one; the
			// snapshot can.
			if size[i] != 0 {
				return fmt.Errorf("dcache: %q missing from server fallback", paths[j])
			}
			files[j] = []byte{}
		}
		out[i] = files[j]
	}
	return nil
}
