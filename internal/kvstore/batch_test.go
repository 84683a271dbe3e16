package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
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

// insertionOrders yields three orders a batch may arrive in: already
// sorted, reverse sorted, and shuffled.
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

// TestPutBatchMatchesSortedPuts: a shuffled PutBatch must build the same
// physical tree as sequential Puts in key order (PutBatch sorts), and
// the same logical content as sequential Puts in the original order.
// Each Put is a transaction of its own, so its leaf cursor never serves
// a key: the sequential tree is the plain root-to-leaf descent, and the
// batch's cursor must be a pure shortcut, never a different insertion.
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
		if got := batched.Stats().Puts; got != int64(n) {
			t.Errorf("%s: Puts = %d, want %d", name, got, n)
		}
		if got := batched.Stats().FastPathHits; got < int64(n)*9/10 {
			t.Errorf("%s: the leaf cursor served %d of %d puts", name, got, n)
		}
		if got := sequential.Stats().FastPathHits; got != 0 {
			t.Errorf("%s: one-key transactions recorded %d cursor hits", name, got)
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

// TestDeleteKeepsFastPathCorrect: batches whose deletes move the leaf
// cursor through the tree before their sorted puts reuse it must not
// corrupt the tree (deletes never move separators, so the cursor's range
// stays valid), and interleaved one-key Puts and Deletes must not either.
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
	more, moreVals := orderedKeys(3000)
	for lo := 0; lo < 3000; lo += 500 {
		var b Batch
		for i := lo; i < lo+500; i += 7 {
			b.Delete(more[i])
		}
		for i := lo; i < lo+500; i++ {
			b.Put(more[i], moreVals[i])
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := db.Ascend(nil, nil, func(k, v []byte) bool { n++; return true }); err != nil || n != 3000 {
		t.Fatalf("after the batches: %d entries (err %v), want 3000", n, err)
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
// page-for-page the tree one Put per key builds; each Put is its own
// transaction, so that tree comes from the plain descent.
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

// TestSortedRunBeforeLargeEntriesPacks: a sorted batch that lands just
// ahead of three 1.4 KB entries — a later document's records ahead of
// the first document's registry chunks — fills its leaves. A leaf that
// overflows with a third of a page or more after the insertion point
// keeps the new key and hands those entries to a leaf of their own, so
// the run goes on appending to a packed leaf; cutting before the new key
// instead carries a large entry into every leaf of the run, which then
// takes about half again as many pages.
func TestSortedRunBeforeLargeEntriesPacks(t *testing.T) {
	db := OpenMemory(nil)
	big := bytes.Repeat([]byte("t"), 1400)
	var keys, vals [][]byte
	bytesIn := 0
	for i := 0; i < 3; i++ {
		keys = append(keys, []byte(fmt.Sprintf("T%d", i)))
		vals = append(vals, big)
		bytesIn += 4 + 2 + len(big)
	}
	if err := db.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	keys, vals = nil, nil
	for i := 0; i < 3000; i++ {
		k, v := []byte(fmt.Sprintf("N%06d", i)), []byte(fmt.Sprintf("value-%024d", i))
		keys, vals = append(keys, k), append(vals, v)
		bytesIn += 4 + len(k) + len(v)
	}
	if err := db.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for id := uint32(1); id < db.pager.npages.Load(); id++ {
		buf, err := db.pager.read(id)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] == pageLeaf {
			leaves++
		}
	}
	want := (bytesIn+PageSize-1)/PageSize + 2
	t.Logf("%d entry bytes in %d leaves", bytesIn, leaves)
	if leaves > want {
		t.Errorf("%d entry bytes took %d leaves, want at most %d", bytesIn, leaves, want)
	}
}

// TestWriteTxnRandomizedModel: seeded transactions of every kind —
// PutBatch with shuffled keys, single Puts, Deletes, and Applies mixing
// puts and deletes — over mixed value
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
	for txn := 0; txn < 80; txn++ {
		switch rng.Intn(4) {
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
		case 3:
			// One Apply of puts and deletes: the deletes land first, so a
			// key both deleted and put — here every fifth put — ends up put.
			var b Batch
			var dels []string
			puts := map[string]string{}
			for i := rng.Intn(300); i >= 0; i-- {
				if rng.Intn(3) == 0 {
					k := key()
					b.Delete(k)
					dels = append(dels, string(k))
					continue
				}
				k, v := key(), value()
				if i%5 == 0 {
					b.Delete(k)
					dels = append(dels, string(k))
				}
				b.Put(k, v)
				puts[string(k)] = string(v)
			}
			if err := db.Apply(&b); err != nil {
				t.Fatal(err)
			}
			for _, k := range dels {
				delete(model, k)
			}
			for k, v := range puts {
				model[k] = v
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
// keeps the batch's own key and value slices, so it allocates a small
// constant per leaf, not per key.
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

// TestApplyRetainsNoCallerBytes: the tree keeps a batch's own key and
// value slices only until Apply returns. After every Apply the test
// overwrites each byte of the keys, values and delete keys it passed —
// for batches that commit and for one that fails validation — and then
// Get, Ascend, a snapshot opened before the last commit, and, on the
// file backend, the store reopened from its files must all still give
// the original bytes.
func TestApplyRetainsNoCallerBytes(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	val := func(i, round int) []byte {
		// Sizes from empty to over half a page, so leaves split both at
		// the insertion point and balanced, and the root splits.
		return bytes.Repeat([]byte{byte('a' + (i+round)%26)}, (i*37+round*11)%1100)
	}
	// scribble overwrites every byte the caller handed to Apply.
	scribble := func(slices ...[][]byte) {
		for _, s := range slices {
			for _, b := range s {
				for i := range b {
					b[i] = 0xA5
				}
			}
		}
	}
	check := func(label string, get func([]byte) ([]byte, bool, error),
		ascend func(fn func(k, v []byte) bool) error, model map[string]string) {
		t.Helper()
		for k, v := range model {
			got, ok, err := get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("%s: Get(%s) = %d bytes, %v, %v; want %d bytes", label, k, len(got), ok, err, len(v))
			}
		}
		n := 0
		err := ascend(func(k, v []byte) bool {
			if want, ok := model[string(k)]; !ok || want != string(v) {
				t.Errorf("%s: Ascend yields %q (%d bytes), not in the model", label, k, len(v))
				return false
			}
			n++
			return true
		})
		if err != nil || n != len(model) {
			t.Fatalf("%s: Ascend saw %d entries (err %v), want %d", label, n, err, len(model))
		}
	}
	fs := NewFaultFS()
	backends := []struct {
		name   string
		open   func() (*DB, error)
		reopen bool
	}{
		{"memory", func() (*DB, error) { return OpenMemory(&Options{CachePages: 16}), nil }, false},
		{"file", func() (*DB, error) { return Open("retain.db", &Options{FS: fs, CachePages: 16}) }, true},
	}
	for _, be := range backends {
		db, err := be.open()
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		apply := func(round int, puts, dels []int) error {
			var b Batch
			var keys, vals, delKeys [][]byte
			for _, i := range puts {
				k, v := key(i), val(i, round)
				keys, vals = append(keys, k), append(vals, v)
				b.Put(k, v)
			}
			for _, i := range dels {
				k := key(i)
				delKeys = append(delKeys, k)
				b.Delete(k)
			}
			err := db.Apply(&b)
			if err == nil {
				for _, k := range delKeys {
					delete(model, string(k))
				}
				for j, k := range keys {
					model[string(k)] = string(vals[j])
				}
				if be.reopen {
					err = db.Sync()
				}
			}
			scribble(keys, vals, delKeys)
			return err
		}
		var base, next, gone []int
		for i := 0; i < 3000; i += 2 {
			base = append(base, i)
		}
		if err := apply(0, base, nil); err != nil {
			t.Fatalf("%s: %v", be.name, err)
		}
		before := maps.Clone(model)
		snap := db.OpenSnapshot()
		// Odd keys inside the range, even ones replaced, keys past the
		// end, in reverse so Apply has to sort; and a run of deletes.
		for i := 3600; i > 1000; i-- {
			if i%3 != 0 {
				next = append(next, i)
			}
		}
		for i := 0; i < 600; i += 6 {
			gone = append(gone, i)
		}
		if err := apply(1, next, gone); err != nil {
			t.Fatalf("%s: %v", be.name, err)
		}
		// Fails validation on its last put: nothing of it may land.
		bad := Batch{}
		k, v := key(5), val(5, 2)
		bad.Put(k, v)
		huge := make([]byte, MaxValueSize+1)
		bad.Put(key(7), huge)
		if err := db.Apply(&bad); err == nil {
			t.Fatalf("%s: oversized value accepted", be.name)
		}
		scribble([][]byte{k, v, huge})

		check(be.name+" snapshot before the commit", snap.Get,
			func(fn func(k, v []byte) bool) error { return snap.Ascend(nil, nil, fn) }, before)
		snap.Close()
		check(be.name, db.Get, func(fn func(k, v []byte) bool) error { return db.Ascend(nil, nil, fn) }, model)
		if !be.reopen {
			continue
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = be.open(); err != nil {
			t.Fatal(err)
		}
		check(be.name+" reopened", db.Get, func(fn func(k, v []byte) bool) error { return db.Ascend(nil, nil, fn) }, model)
		db.Close()
	}
}
