package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// orderedKeys returns n distinct keys whose lexicographic order matches
// their index order, plus matching values.
func orderedKeys(n int) (keys, vals [][]byte) {
	for i := 0; i < n; i++ {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i))
		keys = append(keys, k)
		vals = append(vals, []byte(fmt.Sprintf("value-%d", i)))
	}
	return keys, vals
}

// pageImage dumps every page of the store as one byte slice, reading
// through the buffer pool so dirty pages are included.
func pageImage(t *testing.T, db *DB) []byte {
	t.Helper()
	var out []byte
	for id := uint32(0); id < db.pager.npages.Load(); id++ {
		buf, err := db.pager.read(id)
		if err != nil {
			t.Fatalf("read page %d: %v", id, err)
		}
		out = append(out, buf...)
	}
	return out
}

// insertionOrders yields the three orders the fast path must handle:
// already sorted (every insert hits the cached right edge), reverse
// sorted (every insert misses), and shuffled.
func insertionOrders(n int) map[string][]int {
	sorted := make([]int, n)
	reverse := make([]int, n)
	for i := 0; i < n; i++ {
		sorted[i] = i
		reverse[i] = n - 1 - i
	}
	shuffled := append([]int(nil), sorted...)
	rand.New(rand.NewSource(99)).Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	return map[string][]int{"sorted": sorted, "reverse": reverse, "random": shuffled}
}

// TestFastPathTreeIdentical: for sorted, reverse-sorted, and random
// insert orders, the sorted-insert fast path must produce a tree
// byte-identical to the plain root-to-leaf descent — the cache is a pure
// shortcut, never a different insertion.
func TestFastPathTreeIdentical(t *testing.T) {
	const n = 3000
	keys, vals := orderedKeys(n)
	for name, order := range insertionOrders(n) {
		fast := OpenMemory(nil)
		slow := OpenMemory(nil)
		slow.noFastPath = true
		for _, i := range order {
			if err := fast.Put(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
			if err := slow.Put(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		if fast.pager.npages.Load() != slow.pager.npages.Load() {
			t.Fatalf("%s: fast path grew %d pages, slow %d", name, fast.pager.npages.Load(), slow.pager.npages.Load())
		}
		if !bytes.Equal(pageImage(t, fast), pageImage(t, slow)) {
			t.Errorf("%s: fast-path tree differs from plain descent", name)
		}
		if name == "sorted" && fast.Stats().FastPathHits == 0 {
			t.Error("sorted inserts never hit the fast path")
		}
		if slow.Stats().FastPathHits != 0 {
			t.Errorf("%s: noFastPath still recorded %d hits", name, slow.Stats().FastPathHits)
		}
	}
}

// TestPutBatchMatchesSortedPuts: a shuffled PutBatch must build the same
// physical tree as sequential Puts in key order (PutBatch sorts), and
// the same logical content as sequential Puts in the original order.
func TestPutBatchMatchesSortedPuts(t *testing.T) {
	const n = 2500
	keys, vals := orderedKeys(n)
	for name, order := range insertionOrders(n) {
		var bk, bv [][]byte
		for _, i := range order {
			bk = append(bk, keys[i])
			bv = append(bv, vals[i])
		}
		batched := OpenMemory(nil)
		if err := batched.PutBatch(bk, bv); err != nil {
			t.Fatal(err)
		}
		sequential := OpenMemory(nil)
		for i := 0; i < n; i++ {
			if err := sequential.Put(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(pageImage(t, batched), pageImage(t, sequential)) {
			t.Errorf("%s: PutBatch tree differs from sorted sequential Puts", name)
		}
		// The iterator must see every pair in order regardless of how the
		// batch arrived.
		i := 0
		err := batched.Ascend(nil, nil, func(k, v []byte) bool {
			if !bytes.Equal(k, keys[i]) || !bytes.Equal(v, vals[i]) {
				t.Fatalf("%s: entry %d = %q/%q", name, i, k, v)
			}
			i++
			return true
		})
		if err != nil || i != n {
			t.Fatalf("%s: scan saw %d of %d entries (err %v)", name, i, n, err)
		}
		if got := batched.Stats().BatchedPuts; got != int64(n) {
			t.Errorf("%s: BatchedPuts = %d, want %d", name, got, n)
		}
	}
}

// TestPutBatchDuplicatesLastWins: duplicate keys inside one batch apply
// in input order, matching what sequential Puts would leave behind.
func TestPutBatchDuplicatesLastWins(t *testing.T) {
	db := OpenMemory(nil)
	keys := [][]byte{[]byte("b"), []byte("a"), []byte("b"), []byte("a")}
	vals := [][]byte{[]byte("b1"), []byte("a1"), []byte("b2"), []byte("a2")}
	if err := db.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "a2", "b": "b2"} {
		v, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Errorf("Get(%s) = %q %v %v, want %q", k, v, ok, err, want)
		}
	}
}

// TestPutBatchOverwrites: a batch replaces values already in the tree.
func TestPutBatchOverwrites(t *testing.T) {
	db := OpenMemory(nil)
	if err := db.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.PutBatch([][]byte{[]byte("k")}, [][]byte{[]byte("new")}); err != nil {
		t.Fatal(err)
	}
	v, _, _ := db.Get([]byte("k"))
	if string(v) != "new" {
		t.Errorf("Get after batch overwrite = %q", v)
	}
}

// TestPutBatchValidation: mismatched slices and oversized entries are
// rejected before anything is written.
func TestPutBatchValidation(t *testing.T) {
	db := OpenMemory(nil)
	if err := db.PutBatch([][]byte{[]byte("k")}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	big := make([]byte, MaxKeySize+1)
	if err := db.PutBatch([][]byte{[]byte("ok"), big}, [][]byte{[]byte("v"), []byte("v")}); err == nil {
		t.Error("oversized key accepted")
	}
	if _, ok, _ := db.Get([]byte("ok")); ok {
		t.Error("failed batch left a partial write")
	}
}

// TestDeleteKeepsFastPathCorrect: interleaving deletes with fast-path
// inserts must not corrupt the tree (deletes never move separators, so
// the cached leaf range stays valid).
func TestDeleteKeepsFastPathCorrect(t *testing.T) {
	db := OpenMemory(nil)
	keys, vals := orderedKeys(2000)
	for i := range keys {
		if err := db.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := db.Delete(keys[i/2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every key must be findable or verifiably deleted, in order.
	var prev []byte
	err := db.Ascend(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("keys out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutBatchAscendPrefix: writers batching into disjoint key
// prefixes race readers scanning them; run with -race this guards the
// DB-level locking. Each scan must see a consistent prefix: a sorted
// sequence of fully-formed entries.
func TestConcurrentPutBatchAscendPrefix(t *testing.T) {
	db := OpenMemory(nil)
	const writers, batches, perBatch = 4, 8, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var keys, vals [][]byte
				for i := 0; i < perBatch; i++ {
					keys = append(keys, []byte(fmt.Sprintf("w%d/%05d", w, b*perBatch+i)))
					vals = append(vals, []byte(fmt.Sprintf("v%d", i)))
				}
				if err := db.PutBatch(keys, vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < writers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			prefix := []byte(fmt.Sprintf("w%d/", r))
			for i := 0; i < 20; i++ {
				var prev []byte
				err := db.AscendPrefix(prefix, func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("scan out of order under prefix %s", prefix)
						return false
					}
					prev = append(prev[:0], k...)
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	total := 0
	_ = db.AscendPrefix([]byte("w"), func(k, v []byte) bool { total++; return true })
	if want := writers * batches * perBatch; total != want {
		t.Errorf("after concurrent batches: %d entries, want %d", total, want)
	}
}

// TestPutBatchPersists: batched inserts survive close/reopen like
// individual Puts do.
func TestPutBatchPersists(t *testing.T) {
	path := t.TempDir() + "/batch.db"
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := orderedKeys(1200)
	if err := db.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	i := 0
	err = db.Ascend(nil, nil, func(k, v []byte) bool {
		if !bytes.Equal(k, keys[i]) || !bytes.Equal(v, vals[i]) {
			t.Fatalf("entry %d = %q/%q after reopen", i, k, v)
		}
		i++
		return true
	})
	if err != nil || i != len(keys) {
		t.Fatalf("reopen scan saw %d entries (err %v)", i, err)
	}
}

// TestPutBatchSplitHalvesDoNotAlias: a leaf that splits inside a batch
// stays in the transaction's shadow set as two decoded halves cut from
// one backing array, and a later key of the same batch can land in the
// left half. Uncapped, that insert appends over the right half's first
// entry. Batch one packs the leftmost leaf with two ~1.4 KB values;
// batch two's dense small keys all sort before them, so the leaf
// overflows with the insertion point below its byte midpoint (a
// balanced split: left = smalls + first big value, right = the second)
// and the next small key lands in the left half. The result must be
// page-for-page the tree one Put per key builds on the plain descent.
func TestPutBatchSplitHalvesDoNotAlias(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1400)
	var k1, v1, k2, v2 [][]byte
	for i := 0; i < 10; i++ {
		k1 = append(k1, []byte(fmt.Sprintf("k%04d", 100*i)))
		v1 = append(v1, big)
	}
	for i := 0; i < 200; i++ {
		k2 = append(k2, []byte(fmt.Sprintf("a%04d", i)))
		v2 = append(v2, []byte(fmt.Sprintf("v%07d", i)))
	}
	batched := OpenMemory(nil)
	ref := OpenMemory(nil)
	ref.noFastPath = true
	for _, b := range []struct{ keys, vals [][]byte }{{k1, v1}, {k2, v2}} {
		if err := batched.PutBatch(b.keys, b.vals); err != nil {
			t.Fatal(err)
		}
		for i := range b.keys {
			if err := ref.Put(b.keys[i], b.vals[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(pageImage(t, batched), pageImage(t, ref)) {
		t.Error("batched tree differs from one Put per key on the plain descent")
	}
	n := 0
	err := batched.Ascend(nil, nil, func(k, v []byte) bool { n++; return true })
	if err != nil || n != len(k1)+len(k2) {
		t.Errorf("scan saw %d entries (err %v), want %d", n, err, len(k1)+len(k2))
	}
}

// TestWriteTxnRandomizedModel: seeded transactions of every kind —
// PutBatch with shuffled keys, single Puts, Deletes — over mixed value
// sizes (empty to MaxValueSize-sized, so leaves split both balanced and
// at the insertion point), checked against a map model after every
// commit and again after a reopen.
func TestWriteTxnRandomizedModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.db")
	db, err := Open(path, &Options{CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	model := map[string]string{}
	value := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return bytes.Repeat([]byte{'L'}, 1000+rng.Intn(MaxValueSize-1000))
		default:
			return []byte(fmt.Sprintf("v%d", rng.Intn(1e6)))
		}
	}
	key := func() []byte { return []byte(fmt.Sprintf("k%05d", rng.Intn(4000))) }
	check := func(when string) {
		t.Helper()
		var want []string
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		err := db.Ascend(nil, nil, func(k, v []byte) bool {
			if i >= len(want) || string(k) != want[i] || string(v) != model[want[i]] {
				t.Fatalf("%s: scan entry %d = %q (%d-byte value) disagrees with the model", when, i, k, len(v))
			}
			i++
			return true
		})
		if err != nil || i != len(want) {
			t.Fatalf("%s: scan saw %d of %d entries (err %v)", when, i, len(want), err)
		}
	}
	for txn := 0; txn < 60; txn++ {
		switch rng.Intn(3) {
		case 0:
			var keys, vals [][]byte
			for i := rng.Intn(400); i >= 0; i-- {
				k, v := key(), value()
				keys, vals = append(keys, k), append(vals, v)
				model[string(k)] = string(v)
			}
			if err := db.PutBatch(keys, vals); err != nil {
				t.Fatal(err)
			}
		case 1:
			k, v := key(), value()
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = string(v)
		case 2:
			for i := rng.Intn(50); i >= 0; i-- {
				k := key()
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, string(k))
			}
		}
		check(fmt.Sprintf("after transaction %d", txn))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, nil); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("after reopen")
}

// TestPutBatchAllocsPerKey guards the decoded write set: a sorted 20 k-key
// PutBatch into a fresh store decodes and serializes each leaf once and
// copies the batch into one arena, so it allocates a small constant per
// leaf, not per key.
func TestPutBatchAllocsPerKey(t *testing.T) {
	const n = 20000
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		vals[i] = []byte(fmt.Sprintf("val-%d", i))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := OpenMemory(nil).PutBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.3f allocations per key", allocs/n)
	if perKey := allocs / n; perKey > 4 {
		t.Errorf("sorted PutBatch: %.2f allocations per key, want <= 4", perKey)
	}
}
