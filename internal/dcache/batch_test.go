package dcache

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"diesel/internal/wire"
)

// encodeCacheGetResp is the response encoding handleCacheGet produces,
// with nil entries encoded as absent.
func encodeCacheGetResp(files [][]byte) []byte {
	e := wire.NewEncoder(0)
	for _, b := range files {
		if b == nil {
			e.Uint32(absentEntry)
			continue
		}
		e.Bytes32(b)
	}
	return e.Bytes()
}

// FuzzCacheGetBatch throws arbitrary bytes at both halves of the batched
// cache.get format: the master's request decode and the requester's
// response decode. Neither may panic; whatever decodes must re-encode to
// exactly the input, so a response whose entry count differs from the
// request's is an error, never a partial result. Decoded paths are
// bounded by the request size, decoded files are windows into the
// response: no allocation is sized by a length field.
func FuzzCacheGetBatch(f *testing.F) {
	req := func(paths ...string) []byte {
		e := encodeCacheGetReq(paths)
		defer e.Release()
		return append([]byte(nil), e.Bytes()...)
	}
	f.Add(req("a/b.jpg"), encodeCacheGetResp([][]byte{[]byte("xyz")}), uint8(1))
	f.Add(req("a", "bb", "ccc"), encodeCacheGetResp([][]byte{[]byte("1"), nil, {}}), uint8(3))
	f.Add(req("a", "b"), encodeCacheGetResp([][]byte{[]byte("1")}), uint8(2))         // fewer entries
	f.Add(req("a"), encodeCacheGetResp([][]byte{[]byte("1"), []byte("2")}), uint8(1)) // more entries
	f.Add([]byte{0, 0, 0, 9, 'a'}, []byte{0xff, 0xff, 0xff, 0xfe, 1, 2}, uint8(1))    // truncated
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, reqB, respB []byte, n uint8) {
		if paths, err := decodeCacheGetReq(reqB); err == nil {
			if len(paths) == 0 || len(paths) > len(reqB)/4 {
				t.Fatalf("%d paths from a %d-byte request", len(paths), len(reqB))
			}
			e := encodeCacheGetReq(paths)
			if !bytes.Equal(e.Bytes(), reqB) {
				t.Fatalf("request %x re-encodes as %x", reqB, e.Bytes())
			}
			e.Release()
		}
		out := make([][]byte, n)
		if err := decodeCacheGetResp(respB, out); err != nil {
			for i, b := range out {
				if b != nil {
					t.Fatalf("failed decode left entry %d set", i)
				}
			}
			return
		}
		if got := encodeCacheGetResp(out); !bytes.Equal(got, respB) {
			t.Fatalf("response %x (%d entries) re-encodes as %x", respB, n, got)
		}
	})
}

// TestCacheGetRespRejects pins the response decode's error cases.
func TestCacheGetRespRejects(t *testing.T) {
	two := encodeCacheGetResp([][]byte{[]byte("abc"), nil})
	for name, tc := range map[string]struct {
		resp []byte
		n    int
	}{
		"fewer entries":  {two, 3},
		"more entries":   {two, 1},
		"truncated":      {two[:5], 2},
		"huge length":    {[]byte{0x7f, 0xff, 0xff, 0xff, 1}, 1},
		"empty response": {nil, 1},
	} {
		if err := decodeCacheGetResp(tc.resp, make([][]byte, tc.n)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decodeCacheGetReq(nil); err == nil {
		t.Error("empty request decoded without error")
	}
	if _, err := decodeCacheGetReq([]byte{0, 0, 0, 4, 'a'}); err == nil {
		t.Error("truncated request decoded without error")
	}
}

// remoteNames splits the fixture's files into those p serves itself and
// those another master owns.
func remoteNames(t *testing.T, p *Peer, files map[string][]byte) (local, remote []string) {
	t.Helper()
	for name := range files {
		m, err := p.snap.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.ownerOf(m.ChunkIdx) == p.selfIdx {
			local = append(local, name)
		} else {
			remote = append(remote, name)
		}
	}
	return local, remote
}

func checkBatch(t *testing.T, files map[string][]byte, paths []string, got [][]byte) {
	t.Helper()
	if len(got) != len(paths) {
		t.Fatalf("got %d files for %d paths", len(got), len(paths))
	}
	for i, path := range paths {
		if !bytes.Equal(got[i], files[path]) {
			t.Fatalf("%s: wrong bytes in position %d", path, i)
		}
	}
}

// TestReadFilesOneRPCPerOwner: a group read sends each remote master one
// cache.get for all its files, reads local files from the store, and
// counts every file in the per-file stats.
func TestReadFilesOneRPCPerOwner(t *testing.T) {
	f := newFixture(t, 60, 200, []string{"a", "b", "b"}, Oneshot, 0)
	for _, p := range f.peers {
		if err := p.LoadOwned(); err != nil {
			t.Fatal(err)
		}
	}
	local, remote := remoteNames(t, f.peers[0], f.files)
	paths := append(append([]string(nil), remote...), local...)
	ctx := context.Background()

	a, b := f.peers[0], f.peers[1]
	servedA, servedB := a.srv.Stats.Requests.Load(), b.srv.Stats.Requests.Load()
	got, err := a.ReadFilesViewContext(ctx, paths)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, f.files, paths, got)
	if n := b.srv.Stats.Requests.Load() - servedB; n != 1 {
		t.Fatalf("master b served %d cache.get calls for one group, want 1", n)
	}
	if a.Stats.LocalHits.Load() != uint64(len(local)) || a.Stats.PeerReads.Load() != uint64(len(remote)) ||
		a.Stats.ServerFallback.Load() != 0 {
		t.Fatalf("stats local=%d peer=%d fallback=%d, want %d/%d/0", a.Stats.LocalHits.Load(),
			a.Stats.PeerReads.Load(), a.Stats.ServerFallback.Load(), len(local), len(remote))
	}

	// A worker (rank 2, node b) owns nothing: every file is a peer read,
	// one cache.get per master.
	w := f.peers[2]
	got, err = w.ReadFilesViewContext(ctx, paths)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, f.files, paths, got)
	if na, nb := a.srv.Stats.Requests.Load()-servedA, b.srv.Stats.Requests.Load()-servedB; na != 1 || nb != 2 {
		t.Fatalf("masters served %d/%d cache.get calls, want 1/2", na, nb)
	}
	if w.Stats.PeerReads.Load() != uint64(len(paths)) {
		t.Fatalf("worker peer reads = %d, want %d", w.Stats.PeerReads.Load(), len(paths))
	}
}

// TestReadFilesSplitsFrames: files that would not fit one coalescing
// window go in as many cache.get calls as keep each response inside it.
func TestReadFilesSplitsFrames(t *testing.T) {
	const fileSize = 8 << 10
	f := newFixture(t, 40, fileSize, []string{"a", "b"}, Oneshot, 0)
	for _, p := range f.peers {
		if err := p.LoadOwned(); err != nil {
			t.Fatal(err)
		}
	}
	_, remote := remoteNames(t, f.peers[0], f.files)
	perFrame := cacheGetRespBudget / (4 + fileSize)
	want := (len(remote) + perFrame - 1) / perFrame
	if want < 2 {
		t.Fatalf("%d remote files fit one frame; the test needs more", len(remote))
	}
	b := f.peers[1]
	served, out := b.srv.Stats.Requests.Load(), b.srv.Stats.BytesOut.Load()
	got, err := f.peers[0].ReadFilesViewContext(context.Background(), remote)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, f.files, remote, got)
	if n := b.srv.Stats.Requests.Load() - served; n != uint64(want) {
		t.Fatalf("%d cache.get calls for %d remote files, want %d", n, len(remote), want)
	}
	if sent := b.srv.Stats.BytesOut.Load() - out; sent != uint64(len(remote)*(4+fileSize)) {
		t.Fatalf("master sent %d response bytes, want %d", sent, len(remote)*(4+fileSize))
	}
}

// TestReadFilesDeadMaster: with the owner gone every batch still
// completes from the servers, and the breaker records one outcome per
// RPC — DeadAfter batches open it — after which no RPC is attempted.
func TestReadFilesDeadMaster(t *testing.T) {
	f := newFaultFixture(t, 40, 200, []string{"a", "b"}, Config{
		Policy: Oneshot, DeadAfter: 2, DeadCooldown: time.Hour, PeerCallTimeout: time.Second,
	})
	p0 := f.peers[0]
	if err := p0.LoadOwned(); err != nil {
		t.Fatal(err)
	}
	_, remote := remoteNames(t, p0, f.files)
	f.peers[1].Close()
	ctx := context.Background()
	for call := 1; call <= 3; call++ {
		before := p0.Stats.ServerFallback.Load()
		got, err := p0.ReadFilesViewContext(ctx, remote)
		if err != nil {
			t.Fatalf("batch %d: %v", call, err)
		}
		checkBatch(t, f.files, remote, got)
		if n := p0.Stats.ServerFallback.Load() - before; n != uint64(len(remote)) {
			t.Fatalf("batch %d: %d fallbacks, want %d", call, n, len(remote))
		}
		if dead := p0.DeadMasters(); (call >= 2) != (dead == 1) {
			t.Fatalf("after batch %d: DeadMasters = %d", call, dead)
		}
	}
	if d := p0.Stats.MasterDeaths.Load(); d != 1 {
		t.Fatalf("MasterDeaths = %d, want 1", d)
	}
}

// TestReadFilesPartialAnswer: a master that cannot serve some files
// answers them absent; exactly those fall back to the servers, and an
// answering master — even one failing the whole RPC — stays alive.
func TestReadFilesPartialAnswer(t *testing.T) {
	f := newFaultFixture(t, 40, 200, []string{"a", "b"}, Config{
		Policy: Oneshot, DeadAfter: 1, DeadCooldown: time.Hour, PeerCallTimeout: time.Second,
	})
	p0, p1 := f.peers[0], f.peers[1]
	_, remote := remoteNames(t, p0, f.files)
	addr := p1.Addr()
	p1.Close()
	var failAll atomic.Bool
	srv := wire.NewServer()
	srv.Handle(methodCacheGet, func(payload []byte) ([]byte, error) {
		if failAll.Load() {
			return nil, errors.New("master cannot serve")
		}
		paths, err := decodeCacheGetReq(payload)
		if err != nil {
			return nil, err
		}
		files := make([][]byte, len(paths))
		for i, p := range paths {
			if i%2 == 0 {
				files[i] = f.files[p]
			}
		}
		return encodeCacheGetResp(files), nil
	})
	for i := 0; ; i++ {
		if _, err := srv.Listen(addr); err == nil {
			break
		} else if i > 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv.Close()

	got, err := p0.ReadFilesViewContext(context.Background(), remote)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, f.files, remote, got)
	absent := uint64(len(remote) / 2)
	if fb, pr := p0.Stats.ServerFallback.Load(), p0.Stats.PeerReads.Load(); fb != absent || pr != uint64(len(remote))-absent {
		t.Fatalf("fallback=%d peer=%d, want %d/%d", fb, pr, absent, uint64(len(remote))-absent)
	}

	failAll.Store(true)
	for range 3 {
		got, err := p0.ReadFilesViewContext(context.Background(), remote)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, f.files, remote, got)
	}
	if p0.DeadMasters() != 0 {
		t.Fatal("an answering master was marked dead")
	}
}
