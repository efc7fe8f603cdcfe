package dcache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"diesel/internal/spill"
)

// The master-side chunk store, sharded so concurrent epoch readers on one
// node stop convoying on a single mutex: get/put touch only the shard the
// chunk-ID hash selects, each shard with its own lock and LRU clock.
//
// The byte budget stays global — a single atomic — rather than capacity/N
// per shard. That preserves the unsharded store's semantics exactly: a
// chunk is refused only when it exceeds the *whole* capacity, and the
// store never strands capacity in shards the hash happens to leave cold.
//
// Eviction is still exact global LRU: every entry carries a tick from a
// shared recency clock, and since each shard's list is recency-ordered,
// the globally least-recent chunk is always one of the shard tails. The
// evictor scans the tails (one short lock hold per shard, never two locks
// at once) and removes the oldest, so a capacity-bound chunk-wise reader
// keeps the one-load-per-chunk behaviour the shuffle integration test
// pins, while lock contention on the hit path drops by ~the shard count.
const storeShardCount = 16 // must be a power of two

type chunkStore struct {
	capacity int64         // 0 = unlimited; immutable after newChunkStore
	used     atomic.Int64  // payload bytes across all shards
	clock    atomic.Uint64 // global recency tick source

	// spill, when set, is the local-SSD tier under this RAM store:
	// eviction demotes a victim's payload there instead of discarding it,
	// and reads that miss RAM are served from (or promoted out of) it.
	// Atomic so enabling it on a SharedCache already serving reads is safe.
	spill atomic.Pointer[spillState]

	shards [storeShardCount]storeShard
}

// spillState bundles the spill log with the per-store counters the debug
// handler and tests read (the package-wide metric mirrors live in
// metrics.go and are bumped at the same sites).
type spillState struct {
	log       *spill.Log
	demotions atomic.Uint64
	demotedB  atomic.Uint64
	promos    atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	rewarmed  spill.Recovered
}

type storeShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recent
}

type storeEntry struct {
	id   string // store key: dataset-qualified (see Peer.storeKeys)
	ds   string // dataset the chunk belongs to; eviction preference input
	cc   *cachedChunk
	tick uint64 // recency stamp; read/written under the owning shard's lock
}

func newChunkStore(capacity int64) *chunkStore {
	s := &chunkStore{capacity: capacity}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*list.Element)
		s.shards[i].lru = list.New()
	}
	return s
}

// shardOf hashes a chunk ID (FNV-1a) onto a shard index.
func shardOf(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h & (storeShardCount - 1))
}

func (s *chunkStore) get(id string) *cachedChunk {
	sh := &s.shards[shardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[id]
	if !ok {
		return nil
	}
	sh.lru.MoveToFront(el)
	el.Value.(*storeEntry).tick = s.clock.Add(1)
	return el.Value.(*storeEntry).cc
}

// put inserts a chunk, returning the number of evictions it caused and
// whether the chunk was actually cached. A chunk larger than the whole
// capacity is refused outright: evicting everything could not make it
// fit, and inserting it anyway would leave used > capacity permanently.
// prefer, when non-nil, marks datasets whose chunks should be evicted
// first (the shared cache's cold-dataset preference); nil keeps plain
// global LRU.
func (s *chunkStore) put(id, ds string, cc *cachedChunk, prefer func(string) bool) (evicted uint64, cached bool) {
	size := cc.size()
	if s.capacity > 0 && size > s.capacity {
		return 0, false
	}
	sh := &s.shards[shardOf(id)]
	sh.mu.Lock()
	if _, dup := sh.items[id]; dup {
		sh.mu.Unlock()
		return 0, true
	}
	sh.items[id] = sh.lru.PushFront(&storeEntry{id: id, ds: ds, cc: cc, tick: s.clock.Add(1)})
	sh.mu.Unlock()
	s.used.Add(size)
	if s.capacity > 0 {
		evicted = s.evictOver(s.capacity, id, prefer)
	}
	return evicted, true
}

// evictOver removes least-recent chunks until used fits the budget. The
// freshly inserted chunk (keep) is exempt — the unsharded store made room
// before inserting, so the newcomer was never a victim. Locks are taken
// one shard at a time; a shard whose tail changes between the scan and
// the removal just triggers a rescan.
//
// Victim order: among the shard tails, an entry of a preferred (cold)
// dataset beats any entry of a live one, oldest-first within each class —
// cold datasets see no reads, so their entries sink to the tails on their
// own and the preference finds them there. With prefer nil the scan is
// exact global LRU, as before.
func (s *chunkStore) evictOver(capacity int64, keep string, prefer func(string) bool) (evicted uint64) {
	for s.used.Load() > capacity {
		victim, coldVictim := -1, -1
		var oldest, coldOldest uint64
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			var id, ds string
			var tick uint64
			ok := false
			if back := sh.lru.Back(); back != nil {
				e := back.Value.(*storeEntry)
				id, ds, tick, ok = e.id, e.ds, e.tick, true
			}
			sh.mu.Unlock()
			if !ok || id == keep {
				continue
			}
			if victim < 0 || tick < oldest {
				victim, oldest = i, tick
			}
			// Coldness may consult a registry; never judged under a shard lock.
			if prefer != nil && prefer(ds) && (coldVictim < 0 || tick < coldOldest) {
				coldVictim, coldOldest = i, tick
			}
		}
		if coldVictim >= 0 {
			victim = coldVictim
		}
		if victim < 0 {
			// Nothing evictable remains (only the protected chunk is left).
			return evicted
		}
		sh := &s.shards[victim]
		sh.mu.Lock()
		back := sh.lru.Back()
		if back == nil || back.Value.(*storeEntry).id == keep {
			sh.mu.Unlock()
			continue // raced with a concurrent get/put; rescan
		}
		e := back.Value.(*storeEntry)
		st := s.spill.Load()
		spilled := false
		if st != nil {
			// The spill copy is written before the victim leaves RAM, so a
			// read racing the eviction finds the chunk in one tier or the
			// other, never neither. The write is disk I/O and happens
			// outside every shard lock, so it never convoys the hit path.
			// A read that touches the victim meanwhile does not save it:
			// rescanning on every touch could spin behind a hot chunk.
			sh.mu.Unlock()
			spilled = s.spillCopy(st, e)
			sh.mu.Lock()
			if sh.items[e.id] != back {
				sh.mu.Unlock()
				continue // removed by a concurrent evictor or clear; rescan
			}
		}
		sh.lru.Remove(back)
		delete(sh.items, e.id)
		sh.mu.Unlock()
		s.used.Add(-e.cc.size())
		if spilled {
			st.demotions.Add(1)
			mSpillDemotions.Inc()
		}
		evicted++
	}
	return evicted
}

// evictDatasets removes every entry whose dataset the predicate marks,
// returning chunks and bytes freed. Unlike evictOver it walks whole
// shards, not just tails — it is the shared cache's housekeeping sweep,
// not a hot-path budget check.
func (s *chunkStore) evictDatasets(pred func(string) bool) (chunks int, bytes int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		// Collect victims under the lock, judge coldness outside it (the
		// predicate may consult a registry), then remove under the lock
		// again, tolerating concurrent removals.
		sh.mu.Lock()
		cand := make([]*storeEntry, 0, sh.lru.Len())
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			cand = append(cand, el.Value.(*storeEntry))
		}
		sh.mu.Unlock()
		for _, e := range cand {
			if !pred(e.ds) {
				continue
			}
			sh.mu.Lock()
			el, ok := sh.items[e.id]
			if ok {
				sh.lru.Remove(el)
				delete(sh.items, e.id)
			}
			sh.mu.Unlock()
			if ok {
				size := e.cc.size()
				s.used.Add(-size)
				chunks++
				bytes += size
			}
		}
	}
	// A cold dataset's chunks are not worth SSD either: drop its spill
	// entries so abandoned working sets free both tiers. Store keys are
	// dataset-qualified (Peer.storeKeys), so the dataset is the key prefix
	// up to the NUL separator.
	if st := s.spill.Load(); st != nil {
		st.log.Drop(func(key string) bool {
			ds, _, ok := strings.Cut(key, "\x00")
			return ok && pred(ds)
		})
	}
	return chunks, bytes
}

// enableSpill opens the local-SSD tier under this store. onDrop feeds
// segment-retirement counts to the package metrics.
func (s *chunkStore) enableSpill(cfg spill.Config) (spill.Recovered, error) {
	if s.spill.Load() != nil {
		return spill.Recovered{}, errSpillEnabled
	}
	cfg.OnDrop = func(n int, b int64) {
		mSpillDropped.Add(uint64(n))
		mSpillDroppedBytes.Add(uint64(b))
	}
	log, rec, err := spill.Open(cfg)
	if err != nil {
		return spill.Recovered{}, err
	}
	st := &spillState{log: log, rewarmed: rec}
	if !s.spill.CompareAndSwap(nil, st) {
		log.Close()
		return spill.Recovered{}, errSpillEnabled
	}
	mSpillRewarmChunks.Add(uint64(rec.Entries))
	mSpillRewarmBytes.Add(uint64(rec.Bytes))
	return rec, nil
}

// closeSpill detaches and closes the spill log; on-disk state stays for
// the next enableSpill (the warm-restart story).
func (s *chunkStore) closeSpill() {
	if st := s.spill.Swap(nil); st != nil {
		st.log.Close()
	}
}

// spillCopy writes an eviction victim's payload to the spill tier,
// reporting whether the tier now holds it. Chunks are immutable, so a key
// already spilled needs no disk write — the log reports written=false and
// re-demotion is free. The bytes count as demoted when written, even if a
// concurrent read then keeps the chunk in RAM: they are on disk either way.
func (s *chunkStore) spillCopy(st *spillState, e *storeEntry) bool {
	written, err := st.log.Add(e.id, e.cc.payload)
	if err != nil {
		return false // disk trouble: the demotion degrades to a plain drop
	}
	if written {
		st.demotedB.Add(uint64(len(e.cc.payload)))
		mSpillDemotedBytes.Add(uint64(len(e.cc.payload)))
	}
	return true
}

// spillRead serves one file-granular range straight from the spill tier
// (a single pread into a fresh GC-owned buffer — the caller may hand it
// out under either the view or the copy contract). hits is the entry's
// spill read count, the promotion policy's input.
func (s *chunkStore) spillRead(key string, off, length uint64) (b []byte, hits int, ok bool) {
	st := s.spill.Load()
	if st == nil {
		return nil, 0, false
	}
	b, hits, err := st.log.ReadAt(key, int64(off), int64(length))
	if err != nil {
		return nil, 0, false
	}
	st.hits.Add(1)
	mSpillHits.Inc()
	return b, hits, true
}

// spillLoad reads a whole chunk payload back out of the spill tier,
// checksum-verified — the promotion (and restart-rewarm) read.
func (s *chunkStore) spillLoad(key string) ([]byte, bool) {
	st := s.spill.Load()
	if st == nil {
		return nil, false
	}
	b, err := st.log.Get(key)
	if err != nil {
		return nil, false
	}
	st.promos.Add(1)
	st.hits.Add(1)
	mSpillPromotions.Inc()
	mSpillHits.Inc()
	return b, true
}

// spillMissed records a read that found neither RAM nor spill and had to
// go to a DIESEL server (only meaningful while spill is enabled).
func (s *chunkStore) spillMissed() {
	if st := s.spill.Load(); st != nil {
		st.misses.Add(1)
		mSpillMisses.Inc()
	}
}

// spillStats snapshots the spill tier (zero value when disabled).
func (s *chunkStore) spillStats() SpillStats {
	st := s.spill.Load()
	if st == nil {
		return SpillStats{}
	}
	ls := st.log.Stats()
	return SpillStats{
		Enabled:      true,
		Chunks:       ls.Entries,
		Bytes:        ls.LiveBytes,
		DiskBytes:    ls.DiskBytes,
		Segments:     ls.Segments,
		ManifestRecs: ls.ManifestRecords,
		Hits:         st.hits.Load(),
		Misses:       st.misses.Load(),
		Demotions:    st.demotions.Load(),
		DemotedBytes: st.demotedB.Load(),
		Promotions:   st.promos.Load(),
		Dropped:      ls.DroppedEntries,
		RewarmChunks: st.rewarmed.Entries,
		RewarmBytes:  st.rewarmed.Bytes,
	}
}

// spillEachDataset folds per-dataset spilled bytes into acc.
func (s *chunkStore) spillEachDataset(acc func(ds string, bytes int64)) {
	st := s.spill.Load()
	if st == nil {
		return
	}
	st.log.Each(func(key string, size int64) {
		if ds, _, ok := strings.Cut(key, "\x00"); ok {
			acc(ds, size)
		}
	})
}

func (s *chunkStore) bytes() int64 { return s.used.Load() }

func (s *chunkStore) count() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

func (s *chunkStore) clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			s.used.Add(-el.Value.(*storeEntry).cc.size())
		}
		sh.items = make(map[string]*list.Element)
		sh.lru = list.New()
		sh.mu.Unlock()
	}
}
