package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestPutGet(t *testing.T) {
	db := OpenMemory(nil)
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Error("missing key found")
	}
	// Overwrite.
	if err := db.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = db.Get([]byte("k1"))
	if string(v) != "v2" {
		t.Errorf("overwrite: got %q", v)
	}
}

func TestPutValidation(t *testing.T) {
	db := OpenMemory(nil)
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if err := db.Put(bytes.Repeat([]byte("k"), MaxKeySize+1), []byte("v")); err == nil {
		t.Error("oversized key accepted")
	}
	if err := db.Put([]byte("k"), bytes.Repeat([]byte("v"), MaxValueSize+1)); err == nil {
		t.Error("oversized value accepted")
	}
	if err := db.Put([]byte("k"), bytes.Repeat([]byte("v"), MaxValueSize)); err != nil {
		t.Errorf("max-size value rejected: %v", err)
	}
}

func TestSplitsManyKeys(t *testing.T) {
	db := OpenMemory(&Options{CachePages: 16})
	const n = 5000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("value-%d", i*i))
		if err := db.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, err := db.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %d: %v %v", i, ok, err)
		}
		if want := fmt.Sprintf("value-%d", i*i); string(v) != want {
			t.Fatalf("get %d = %q, want %q", i, v, want)
		}
	}
}

func TestIteratorOrder(t *testing.T) {
	db := OpenMemory(nil)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, k := range keys {
		if err := db.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for it := db.First(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("iterator order = %v, want %v", got, want)
	}
}

func TestSeekAndRange(t *testing.T) {
	db := OpenMemory(nil)
	for i := 0; i < 100; i += 2 {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	it := db.Seek([]byte("k051"))
	if !it.Valid() || string(it.Key()) != "k052" {
		t.Errorf("Seek(k051) = %q", it.Key())
	}
	var count int
	err := db.Ascend([]byte("k010"), []byte("k020"), func(k, v []byte) bool {
		count++
		return true
	})
	if err != nil || count != 5 {
		t.Errorf("Ascend count = %d (err %v), want 5", count, err)
	}
}

func TestAscendPrefix(t *testing.T) {
	db := OpenMemory(nil)
	for _, k := range []string{"a/1", "a/2", "b/1", "a/3", "c"} {
		db.Put([]byte(k), []byte("v"))
	}
	var got []string
	db.AscendPrefix([]byte("a/"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != "[a/1 a/2 a/3]" {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestDelete(t *testing.T) {
	db := OpenMemory(nil)
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	for i := 0; i < 500; i += 2 {
		if err := db.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]byte("absent")); err != nil {
		t.Errorf("delete absent: %v", err)
	}
	for i := 0; i < 500; i++ {
		_, ok, _ := db.Get([]byte(fmt.Sprintf("k%04d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after delete, Get(%d) ok=%v want %v", i, ok, want)
		}
	}
}

// TestModelEquivalence drives the store with random operations and checks
// every observable against a map model.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := OpenMemory(&Options{CachePages: 8}) // tiny cache: force eviction
	model := map[string]string{}
	key := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(300))) }
	for op := 0; op < 20000; op++ {
		switch rng.Intn(4) {
		case 0, 1: // put
			k := key()
			v := []byte(fmt.Sprintf("val-%d", rng.Intn(1000000)))
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = string(v)
		case 2: // get
			k := key()
			v, ok, err := db.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[string(k)]
			if ok != mok || (ok && string(v) != mv) {
				t.Fatalf("op %d: Get(%s) = %q,%v; model %q,%v", op, k, v, ok, mv, mok)
			}
		case 3: // delete
			k := key()
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		}
	}
	// Full scan must equal the sorted model.
	var modelKeys []string
	for k := range model {
		modelKeys = append(modelKeys, k)
	}
	sort.Strings(modelKeys)
	var gotKeys []string
	for it := db.First(); it.Valid(); it.Next() {
		gotKeys = append(gotKeys, string(it.Key()))
		if model[string(it.Key())] != string(it.Value()) {
			t.Fatalf("scan value mismatch at %s", it.Key())
		}
	}
	if fmt.Sprint(gotKeys) != fmt.Sprint(modelKeys) {
		t.Fatalf("scan keys = %d entries, model %d", len(gotKeys), len(modelKeys))
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 2000; i += 97 {
		v, ok, err := db2.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopen Get(%d) = %q %v %v", i, v, ok, err)
		}
	}
	count := 0
	for it := db2.First(); it.Valid(); it.Next() {
		count++
	}
	if count != 2000 {
		t.Errorf("reopened scan = %d keys, want 2000", count)
	}
}

func TestCorruptFileRejected(t *testing.T) {
	dir := t.TempDir()

	// Truncated (unaligned) file.
	bad1 := filepath.Join(dir, "trunc.db")
	if err := os.WriteFile(bad1, make([]byte, PageSize+100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad1, nil); err == nil {
		t.Error("unaligned file accepted")
	}

	// Bad magic.
	bad2 := filepath.Join(dir, "magic.db")
	buf := make([]byte, 2*PageSize)
	copy(buf, "NOTASTORE")
	if err := os.WriteFile(bad2, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad2, nil); err == nil {
		t.Error("bad magic accepted")
	}

	// Corrupt root pointer.
	bad3 := filepath.Join(dir, "root.db")
	buf3 := make([]byte, 2*PageSize)
	copy(buf3, magic)
	buf3[8], buf3[9], buf3[10], buf3[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if err := os.WriteFile(bad3, buf3, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad3, nil); err == nil {
		t.Error("corrupt root accepted")
	}
}

func TestStatsCount(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "s.db"), &Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("x"), 100))
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.BlocksWritten == 0 {
		t.Error("no blocks written after sync")
	}
	// Scan with a tiny cache: must read pages back in.
	for it := db.First(); it.Valid(); it.Next() {
	}
	st2 := db.Stats()
	if st2.BlocksRead == 0 {
		t.Error("no blocks read during cold-ish scan")
	}
}

func TestLargeValuesAcrossSplits(t *testing.T) {
	db := OpenMemory(&Options{CachePages: 8})
	val := bytes.Repeat([]byte("z"), MaxValueSize)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("big-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("big-%04d", i)))
		if err != nil || !ok || len(v) != MaxValueSize {
			t.Fatalf("big value %d: ok=%v err=%v len=%d", i, ok, err, len(v))
		}
	}
}

func TestRandomInsertionOrders(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := OpenMemory(&Options{CachePages: 8})
		perm := rng.Perm(1500)
		for _, i := range perm {
			if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		prev := ""
		count := 0
		for it := db.First(); it.Valid(); it.Next() {
			if string(it.Key()) <= prev {
				t.Fatalf("seed %d: keys out of order: %q after %q", seed, it.Key(), prev)
			}
			prev = string(it.Key())
			count++
		}
		if count != 1500 {
			t.Fatalf("seed %d: scan count = %d", seed, count)
		}
	}
}

func TestSeekBeyondLast(t *testing.T) {
	db := OpenMemory(nil)
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	it := db.Seek([]byte("zzz"))
	if it.Valid() {
		t.Errorf("Seek past end should be invalid, at %q", it.Key())
	}
	it.Next() // must not panic
	if it.Err() != nil {
		t.Errorf("err after exhausted iterator: %v", it.Err())
	}
}

func TestIteratorAfterDeletes(t *testing.T) {
	db := OpenMemory(&Options{CachePages: 8})
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	for i := 0; i < 1000; i += 3 {
		db.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	count := 0
	prev := ""
	for it := db.First(); it.Valid(); it.Next() {
		if string(it.Key()) <= prev {
			t.Fatalf("order violated after deletes")
		}
		prev = string(it.Key())
		count++
	}
	if count != 1000-334 {
		t.Errorf("count after deletes = %d, want %d", count, 1000-334)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	db := OpenMemory(nil)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	count := 0
	db.Ascend(nil, nil, func(k, v []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop at %d, want 10", count)
	}
}

func TestSplitPointHandlesSkewedEntries(t *testing.T) {
	// Many tiny entries plus several near-max entries that sort adjacent:
	// the byte-balanced split must keep both halves under a page.
	db := OpenMemory(&Options{CachePages: 8})
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("a%03d", i)), []byte("t")); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("B"), MaxValueSize)
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("a%03dz", i*10)), big); err != nil {
			t.Fatalf("skewed insert %d: %v", i, err)
		}
	}
	count := 0
	for it := db.First(); it.Valid(); it.Next() {
		count++
	}
	if count != 220 {
		t.Errorf("count = %d, want 220", count)
	}
}

// TestSplitBesideLargeValue builds the leaf the shredder produced for
// XMark sf 0.05 seeds 81, 116, 204 and 309: one 4,087-byte leaf with a
// 1,400-byte entry in the middle, then a second 1,400-byte entry landing
// directly before it. Neither large entry reaches the byte midpoint alone
// and the second carries the left half to 4,107 bytes, so the midpoint
// split failed with "node overflows page (4107 bytes)".
func TestSplitBesideLargeValue(t *testing.T) {
	db := OpenMemory(nil)
	want := map[string]int{}
	put := func(key string, valueLen int) {
		t.Helper()
		if err := db.Put([]byte(key), bytes.Repeat([]byte("v"), valueLen)); err != nil {
			t.Fatalf("put %s (%d bytes): %v", key, valueLen, err)
		}
		want[key] = valueLen
	}
	// An entry costs 4 + len(key) + len(value) bytes; the leaf header 7.
	for i := 0; i < 13; i++ {
		put(fmt.Sprintf("a%02d", i), 93) // 13 × 100
	}
	put("m1", 1394) // 1400
	for i := 0; i < 13; i++ {
		put(fmt.Sprintf("z%02d", i), 93) // 13 × 100
	}
	put("z99", 73) // 80: the leaf is now 7+1300+1400+1380 = 4087 bytes
	if n := db.pager.npages.Load(); n != 2 {
		t.Fatalf("fixture spans %d pages, want header + one leaf", n)
	}
	put("m0", 1394) // splits: a00..a12, m0 | m1, z00..z99

	got := 0
	for it := db.First(); it.Valid(); it.Next() {
		if len(it.Value()) != want[string(it.Key())] {
			t.Errorf("%s: %d value bytes, want %d", it.Key(), len(it.Value()), want[string(it.Key())])
		}
		got++
	}
	if got != len(want) {
		t.Errorf("scan saw %d entries, want %d", got, len(want))
	}
}

func TestIterateEmptyStore(t *testing.T) {
	db := OpenMemory(nil)
	if it := db.First(); it.Valid() {
		t.Error("empty store iterator should be invalid")
	}
	count := 0
	db.Ascend(nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 0 {
		t.Errorf("empty ascend visited %d", count)
	}
}

func TestGetOnEmptyStore(t *testing.T) {
	db := OpenMemory(nil)
	if _, ok, err := db.Get([]byte("x")); ok || err != nil {
		t.Errorf("empty get = %v %v", ok, err)
	}
}

func TestBufferPoolAndOpCounters(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "bp.db"), &Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := db.Get([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	db.Delete([]byte("k000000"))
	for it := db.First(); it.Valid(); it.Next() {
	}

	st := db.Stats()
	if st.Puts != 3000 {
		t.Errorf("Puts = %d, want 3000", st.Puts)
	}
	if st.Gets != 100 {
		t.Errorf("Gets = %d, want 100", st.Gets)
	}
	if st.Deletes != 1 {
		t.Errorf("Deletes = %d, want 1", st.Deletes)
	}
	if st.Seeks != 1 {
		t.Errorf("Seeks = %d, want 1", st.Seeks)
	}
	// 3000 entries across an 8-page pool must both hit and miss, and the
	// pool must have evicted; misses equal pages read from the backing
	// store.
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Errorf("hits=%d misses=%d, want both positive", st.CacheHits, st.CacheMisses)
	}
	if st.Evictions == 0 {
		t.Error("no evictions on an overflowing pool")
	}
	if st.CacheMisses != st.BlocksRead {
		t.Errorf("misses=%d != blocks read=%d", st.CacheMisses, st.BlocksRead)
	}
	if r := st.HitRatio(); r <= 0 || r >= 1 {
		t.Errorf("hit ratio = %f, want in (0,1)", r)
	}
}

func TestHitRatioEmptyStats(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Errorf("zero stats hit ratio = %f, want 0", r)
	}
}
