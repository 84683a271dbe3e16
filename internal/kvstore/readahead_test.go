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

// prefixFixture builds a store file with three key prefixes so a
// prefix scan covers a strict middle slice of the tree, then closes it.
func prefixFixture(t *testing.T, perPrefix int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prefixes.db")
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

// interleavedScans cold-opens the fixture with the given pool size,
// advances one scan over "a/" and one over "c/" in lockstep to their
// ends — as a query's cursors over several types do — and returns the
// blocks they read and the keys they visited.
func interleavedScans(t *testing.T, path string, cachePages int) (blocks int64, keys int) {
	t.Helper()
	db, err := Open(path, &Options{CachePages: cachePages})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.OpenSnapshot()
	defer snap.Close()
	before := db.Stats()
	a, c := snap.Seek([]byte("a/")), snap.Seek([]byte("c/"))
	for a.Valid() && bytes.HasPrefix(a.Key(), []byte("a/")) || c.Valid() {
		if a.Valid() && bytes.HasPrefix(a.Key(), []byte("a/")) {
			a.Next()
			keys++
		}
		if c.Valid() {
			c.Next()
			keys++
		}
	}
	if a.Err() != nil || c.Err() != nil {
		t.Fatal(a.Err(), c.Err())
	}
	return db.Stats().BlocksRead - before.BlocksRead, keys
}

// TestInterleavedScansReadEachLeafOnce: two scans side by side on a
// 16-page pool, far smaller than their ranges, read each page once. A
// scan fetches a leaf when it crosses into it and uses it at once, so
// no leaf is evicted between its read and its use; the same scans over
// a pool that holds the whole file read each page they touch exactly
// once and give the count. The one page of slack allows for a leaf on
// the boundary of two ranges, which both scans would read. When each
// crossing prefetched the next 8 leaves, the scans evicted each other's
// prefetched leaves and read them again.
func TestInterleavedScansReadEachLeafOnce(t *testing.T) {
	path := prefixFixture(t, 1500)
	pages, keys := interleavedScans(t, path, 4096)
	small, smallKeys := interleavedScans(t, path, 16)
	t.Logf("blocks read: %d on a 16-page pool, %d pages touched", small, pages)
	if smallKeys != keys || keys != 3000 {
		t.Fatalf("the scans visited %d keys on a 16-page pool and %d on a large one, want 3000", smallKeys, keys)
	}
	if small > pages+1 {
		t.Errorf("interleaved scans on a 16-page pool read %d blocks, want at most the %d pages they touch plus one", small, pages)
	}
}
