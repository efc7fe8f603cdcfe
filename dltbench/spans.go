package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/epoch"
	"diesel/internal/shuffle"
)

// span is one timed call at a layer boundary. Spans of one iteration,
// group fetch or request share an ID; Parent is the index of the span
// that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced phase's spans in memory; they are written
// out when the run ends. A nil *recorder records nothing, which is how
// the untraced phases run without wrappers.
type recorder struct {
	t0    time.Time
	drop  string // spans of this name are not recorded (tests)
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) start(name string, id uint64, parent int32) int32 {
	if r == nil || name == r.drop {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

type spanCtxKey struct{}

type spanRef struct {
	idx int32
	id  uint64
}

func withSpan(ctx context.Context, idx int32, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{idx, id})
}

func spanFrom(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		return ref
	}
	return spanRef{idx: -1}
}

// corrupter flips one byte in every nth payload a wrapper hands back, on
// a private copy (payloads may be views into shared chunks). It exists so
// tests can prove a wrong byte fails the run; n <= 0 disables it.
type corrupter struct {
	n     int64
	calls atomic.Int64
}

func (c *corrupter) apply(b []byte) []byte {
	if c == nil || c.n <= 0 || len(b) == 0 || c.calls.Add(1)%c.n != 0 {
		return b
	}
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0xFF
	return out
}

// The wrappers below time the public seams the program exposes to a
// trainer. Each forwards every optional interface the program probes
// for with a type assertion, so wrapping never changes the path taken:
// CacheSource reads zero-copy only when its FileReader is a ViewReader.

// tracedSource wraps an epoch.Source: one span per ReadGroup attempt
// (hedges included), keyed by epoch and group.
type tracedSource struct {
	inner   epoch.Source
	rec     *recorder
	epochID uint64
	bad     *corrupter
}

func (s *tracedSource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	id := s.epochID<<20 | uint64(g)
	i := s.rec.start("epoch.read_group", id, -1)
	out, err := s.inner.ReadGroup(withSpan(ctx, i, id), plan, g)
	s.rec.end(i)
	if err == nil && len(out) > 0 {
		out[0] = s.bad.apply(out[0])
	}
	return out, err
}

// tracedChunkClient wraps epoch.ChunkClient (a *client.Dataset).
type tracedChunkClient struct {
	inner epoch.ChunkClient
	rec   *recorder
}

func (c *tracedChunkClient) GetChunk(ctx context.Context, chunkID string) ([]byte, error) {
	ref := spanFrom(ctx)
	i := c.rec.start("client.get_chunk", ref.id, ref.idx)
	b, err := c.inner.GetChunk(ctx, chunkID)
	c.rec.end(i)
	return b, err
}

func (c *tracedChunkClient) GetBatch(ctx context.Context, paths []string) ([][]byte, error) {
	ref := spanFrom(ctx)
	i := c.rec.start("client.get_batch", ref.id, ref.idx)
	b, err := c.inner.GetBatch(ctx, paths)
	c.rec.end(i)
	return b, err
}

// viewFileReader is what a *dcache.Peer offers CacheSource.
type viewFileReader interface {
	epoch.FileReader
	epoch.ViewReader
}

// tracedViewReader wraps a cache peer, forwarding both the copying and
// the zero-copy read.
type tracedViewReader struct {
	inner viewFileReader
	rec   *recorder
}

func (v *tracedViewReader) ReadFileContext(ctx context.Context, path string) ([]byte, error) {
	ref := spanFrom(ctx)
	i := v.rec.start("dcache.read", ref.id, ref.idx)
	b, err := v.inner.ReadFileContext(ctx, path)
	v.rec.end(i)
	return b, err
}

func (v *tracedViewReader) ReadFileViewContext(ctx context.Context, path string) ([]byte, error) {
	ref := spanFrom(ctx)
	i := v.rec.start("dcache.read", ref.id, ref.idx)
	b, err := v.inner.ReadFileViewContext(ctx, path)
	v.rec.end(i)
	return b, err
}

// durations returns the durations (ms) of every span with this name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// distinctIDs counts the distinct IDs among spans with this name.
func (r *recorder) distinctIDs(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[uint64]struct{})
	for _, s := range r.spans {
		if s.Name == name {
			seen[s.ID] = struct{}{}
		}
	}
	return len(seen)
}

// selfTimes returns, per span name, the total self time (ms) and the
// span count.
func (r *recorder) selfTimes() map[string][2]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfOf(r.spans)
	out := make(map[string][2]float64)
	for i, s := range r.spans {
		if s.End == 0 {
			continue
		}
		t := out[s.Name]
		t[0] += float64(self[i]) / 1e6
		t[1]++
		out[s.Name] = t
	}
	return out
}

// selfOf returns each span's self time (ns): its duration minus the part
// of it covered by its children. Children of one parent may overlap
// (parallel chunk fetches), so their covered time is the union of their
// intervals clipped to the parent.
func selfOf(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End > 0 {
			self[i] = s.End - s.Start - covered(kids[int32(i)], s.Start, s.End)
		}
	}
	return self
}

// grouping spans structure a consumer's time without being a layer:
// their self time is what no layer accounts for.
var grouping = map[string]bool{"consumer": true, "iter": true, "rw.op": true}

// reconcile sets the consumers' wall time (the summed durations of the
// "consumer" root spans) against what their layers account for (the
// summed self times of every other span below those roots: epoch.open,
// epoch.next, verify and epoch.close, or rw.prep and the client calls and
// verification under rw.op). With every span recorded and properly
// nested, wall - accounted is the grouping spans' self time, the loop's
// own bookkeeping. A dropped span moves its time into its parent's self
// time and raises the difference; a span recorded twice, or overlapping
// a sibling, is counted twice and drives it down.
func (r *recorder) reconcile() (wall, accounted time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return reconcileSpans(r.spans)
}

func reconcileSpans(spans []span) (wall, accounted time.Duration) {
	self := selfOf(spans)
	// A span starts after its parent, so parents come first.
	root := make([]int32, len(spans))
	for i, s := range spans {
		root[i] = int32(i)
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
	}
	for i, s := range spans {
		if s.End == 0 || spans[root[i]].Name != "consumer" {
			continue
		}
		switch {
		case int32(i) == root[i]:
			wall += time.Duration(s.End - s.Start)
		case !grouping[s.Name]:
			accounted += time.Duration(self[i])
		}
	}
	return wall, accounted
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// dump writes every span as one JSON object per line, preceded by a
// self-time summary line per layer.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]any{"layer": n, "self_ms": self[n][0], "spans": self[n][1]}); err != nil {
			f.Close()
			return err
		}
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table to stderr.
func (r *recorder) printSelfTimes(consumerWall time.Duration) {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]][0] > self[names[b]][0] })
	fmt.Fprintf(os.Stderr, "dltbench: traced slices, %.3fs of consumer time; self time by layer:\n", consumerWall.Seconds())
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-20s %10.1f ms  %8.0f spans\n", n, self[n][0], self[n][1])
	}
}
