package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// leftmostLeaf descends the first-child spine to the first leaf.
func leftmostLeaf(t *testing.T, db *DB) *node {
	t.Helper()
	id := db.root
	for {
		n, err := db.readNode(id)
		if err != nil {
			t.Fatalf("read node %d: %v", id, err)
		}
		if n.typ == pageLeaf {
			return n
		}
		id = n.children[0]
	}
}

// chainKeys walks the leaf sibling chain from the leftmost leaf and
// returns every key in chain order.
func chainKeys(t *testing.T, db *DB) [][]byte {
	t.Helper()
	var keys [][]byte
	n := leftmostLeaf(t, db)
	for {
		keys = append(keys, n.keys...)
		if n.next == 0 {
			return keys
		}
		next, err := db.readNode(n.next)
		if err != nil {
			t.Fatalf("read sibling %d: %v", n.next, err)
		}
		if next.typ != pageLeaf {
			t.Fatalf("sibling chain reached non-leaf page %d", n.next)
		}
		n = next
	}
}

// TestLeafSiblingChainAcrossSplits: after heavy splitting under sorted,
// reverse, and random insertion orders, walking the sibling chain must
// visit exactly the keys the iterator visits, in the same order — the
// chain read-ahead follows is the tree's leaf level, no page missed, no
// page doubled, across every split pattern.
func TestLeafSiblingChainAcrossSplits(t *testing.T) {
	const n = 4000
	keys, vals := orderedKeys(n)
	for name, order := range insertionOrders(n) {
		db := OpenMemory(&Options{CachePages: 16})
		for _, i := range order {
			if err := db.Put(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		var want [][]byte
		for it := db.First(); it.Valid(); it.Next() {
			want = append(want, append([]byte(nil), it.Key()...))
		}
		got := chainKeys(t, db)
		if len(got) != len(want) {
			t.Fatalf("%s: chain has %d keys, iterator %d", name, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: chain key %d = %q, iterator %q", name, i, got[i], want[i])
			}
		}
	}
}

// TestLeafSiblingChainPersists: the chain survives close/reopen (the
// pointers are part of the page format, not in-memory state).
func TestLeafSiblingChainPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := orderedKeys(2000)
	perm := rand.New(rand.NewSource(7)).Perm(len(keys))
	for _, i := range perm {
		if err := db.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got := chainKeys(t, db)
	if len(got) != len(keys) {
		t.Fatalf("reopened chain has %d keys, want %d", len(got), len(keys))
	}
	for i := range got {
		if !bytes.Equal(got[i], keys[i]) {
			t.Fatalf("reopened chain key %d = %q, want %q", i, got[i], keys[i])
		}
	}
}

// readAheadFixture builds a store file with three key prefixes so a
// prefix scan covers a strict middle slice of the tree, then closes it.
func readAheadFixture(t *testing.T, perPrefix int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ra.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ks, vs [][]byte
	for _, p := range []string{"a/", "b/", "c/"} {
		for i := 0; i < perPrefix; i++ {
			ks = append(ks, []byte(fmt.Sprintf("%s%05d", p, i)))
			vs = append(vs, bytes.Repeat([]byte{'v'}, 60))
		}
	}
	if err := db.PutBatch(ks, vs); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanPrefix cold-opens the fixture with the given pool size (and, when
// readAhead is false, scan prefetch switched off), runs one
// AscendPrefix collecting the full key/value byte stream (stopping after
// limit entries when limit > 0), and returns the stream plus the I/O
// stats of just that scan.
func scanPrefix(t *testing.T, path string, cachePages int, readAhead bool, prefix string, limit int) ([]byte, Stats) {
	t.Helper()
	db, err := Open(path, &Options{CachePages: cachePages})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !readAhead {
		db.readAhead = 0
	}
	before := db.Stats()
	var stream []byte
	seen := 0
	err = db.AscendPrefix([]byte(prefix), func(k, v []byte) bool {
		stream = append(stream, k...)
		stream = append(stream, '=')
		stream = append(stream, v...)
		stream = append(stream, '\n')
		seen++
		return limit <= 0 || seen < limit
	})
	if err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	return stream, Stats{
		BlocksRead: after.BlocksRead - before.BlocksRead,
		ReadAheads: after.ReadAheads - before.ReadAheads,
	}
}

// TestReadAheadScanIdentical: a prefix scan with read-ahead enabled must
// produce the byte-identical key/value sequence as with it disabled —
// read-ahead only warms the pool, it never changes what a scan sees.
func TestReadAheadScanIdentical(t *testing.T) {
	path := readAheadFixture(t, 1500)
	on, onStats := scanPrefix(t, path, 16, true, "b/", 0)
	off, offStats := scanPrefix(t, path, 16, false, "b/", 0)
	if !bytes.Equal(on, off) {
		t.Fatalf("scan differs with read-ahead: %d vs %d bytes", len(on), len(off))
	}
	if onStats.ReadAheads == 0 {
		t.Error("long scan with read-ahead enabled prefetched nothing")
	}
	if offStats.ReadAheads != 0 {
		t.Errorf("readAhead = 0 still prefetched %d pages", offStats.ReadAheads)
	}
}

// TestReadAheadBlocksReadBounds: read-ahead may overshoot the end of a
// prefix range by at most the read-ahead depth — it must not drag in
// arbitrary pages past the range. The disabled run is the oracle for how
// many pages the range itself occupies.
func TestReadAheadBlocksReadBounds(t *testing.T) {
	path := readAheadFixture(t, 1500)
	// The pool is large enough that nothing is evicted mid-scan: every
	// page is read at most once, so the block counts compare exactly.
	_, off := scanPrefix(t, path, 512, false, "b/", 0)
	_, on := scanPrefix(t, path, 512, true, "b/", 0)
	if on.BlocksRead > off.BlocksRead+defaultReadAhead {
		t.Errorf("read-ahead scan read %d blocks, plain scan %d: overshoot > %d",
			on.BlocksRead, off.BlocksRead, defaultReadAhead)
	}
}

// TestReadAheadEarlyStop: a scan whose callback stops inside the first
// leaf never crosses a leaf boundary, so it must not prefetch at all —
// point-ish lookups pay zero read-ahead cost.
func TestReadAheadEarlyStop(t *testing.T) {
	path := readAheadFixture(t, 1500)
	on, onStats := scanPrefix(t, path, 16, true, "b/", 1)
	off, offStats := scanPrefix(t, path, 16, false, "b/", 1)
	if !bytes.Equal(on, off) {
		t.Fatal("early-stopped scan differs with read-ahead")
	}
	if onStats.ReadAheads != 0 {
		t.Errorf("early stop inside first leaf prefetched %d pages", onStats.ReadAheads)
	}
	if onStats.BlocksRead != offStats.BlocksRead {
		t.Errorf("early stop read %d blocks with read-ahead, %d without",
			onStats.BlocksRead, offStats.BlocksRead)
	}
}

// TestReadAheadStatsSubset: prefetched pages are counted inside the
// regular miss/block accounting (ReadAheads ⊆ CacheMisses = BlocksRead),
// so the vmstat-style figures stay consistent with read-ahead on.
func TestReadAheadStatsSubset(t *testing.T) {
	path := readAheadFixture(t, 1500)
	db, err := Open(path, &Options{CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AscendPrefix([]byte("b/"), func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.ReadAheads == 0 {
		t.Fatal("no read-aheads recorded")
	}
	if st.ReadAheads > st.CacheMisses {
		t.Errorf("ReadAheads %d > CacheMisses %d", st.ReadAheads, st.CacheMisses)
	}
	if st.CacheMisses != st.BlocksRead {
		t.Errorf("CacheMisses %d != BlocksRead %d with read-ahead active", st.CacheMisses, st.BlocksRead)
	}
}

// interleavedScans cold-opens the fixture with the given pool size and
// read-ahead setting, advances one scan over "a/" and one over "c/" in
// lockstep to their ends — as a query's cursors over several types do —
// and returns the blocks read and the prefetched share.
func interleavedScans(t *testing.T, path string, cachePages int, readAhead bool) Stats {
	t.Helper()
	db, err := Open(path, &Options{CachePages: cachePages})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !readAhead {
		db.readAhead = 0
	}
	snap := db.OpenSnapshot()
	defer snap.Close()
	before := db.Stats()
	a, c := snap.Seek([]byte("a/")), snap.Seek([]byte("c/"))
	for a.Valid() && bytes.HasPrefix(a.Key(), []byte("a/")) || c.Valid() {
		if a.Valid() && bytes.HasPrefix(a.Key(), []byte("a/")) {
			a.Next()
		}
		if c.Valid() {
			c.Next()
		}
	}
	if a.Err() != nil || c.Err() != nil {
		t.Fatal(a.Err(), c.Err())
	}
	after := db.Stats()
	return Stats{BlocksRead: after.BlocksRead - before.BlocksRead, ReadAheads: after.ReadAheads - before.ReadAheads}
}

// TestReadAheadSlidesUnderEviction: two scans side by side on a pool far
// smaller than their windows evict each other's prefetched leaves. The
// read-ahead window slides — each crossing walks only the leaf entering
// it — so every leaf is prefetched at most once: a leaf evicted before
// its scan reached it is read again by the scan, not prefetched again by
// every later crossing whose window still covers it. The prefetches
// therefore stay within the pages the same scans read without
// read-ahead, plus each scan's overshoot past its range.
func TestReadAheadSlidesUnderEviction(t *testing.T) {
	path := readAheadFixture(t, 1500)
	off := interleavedScans(t, path, 16, false)
	on := interleavedScans(t, path, 16, true)
	t.Logf("blocks read: %d with read-ahead (%d prefetched), %d without", on.BlocksRead, on.ReadAheads, off.BlocksRead)
	if on.ReadAheads > off.BlocksRead+2*defaultReadAhead {
		t.Errorf("interleaved scans on a 16-page pool prefetched %d pages; without read-ahead they read %d: more than one prefetch per page plus an overshoot of %d",
			on.ReadAheads, off.BlocksRead, 2*defaultReadAhead)
	}
}
