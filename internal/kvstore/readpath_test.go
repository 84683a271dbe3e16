package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// tallKey pads i to a 200-byte key, so an internal page holds about
// twenty separators and a few thousand keys already build a tree of
// height three or more.
func tallKey(i int) []byte { return []byte(fmt.Sprintf("%0200d", i)) }

// treeHeight counts the levels on the leftmost root-to-leaf path.
func treeHeight(t *testing.T, db *DB) int {
	t.Helper()
	h := 1
	for id := db.root; ; h++ {
		n, err := db.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.typ == pageLeaf {
			return h
		}
		id = n.children[0]
	}
}

// checkReadPath compares Get, Seek and a full scan through snap with the
// model: every key the model holds, the gaps around them, and seeks to
// random targets.
func checkReadPath(t *testing.T, label string, snap *Snapshot, model map[string]string, rng *rand.Rand) {
	t.Helper()
	sorted := make([]string, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	i := 0
	for it := snap.First(); it.Valid(); it.Next() {
		if i >= len(sorted) || string(it.Key()) != sorted[i] || string(it.Value()) != model[sorted[i]] {
			t.Fatalf("%s: scan entry %d = %.12q…, want %d keys", label, i, it.Key(), len(sorted))
		}
		i++
	}
	if i != len(sorted) {
		t.Fatalf("%s: scan saw %d keys, model holds %d", label, i, len(sorted))
	}
	for _, k := range sorted {
		v, ok, err := snap.Get([]byte(k))
		if err != nil || !ok || string(v) != model[k] {
			t.Fatalf("%s: Get(%.12q…) = %q %v %v, want %q", label, k, v, ok, err, model[k])
		}
		gap := k + "\x00" // absent: between k and its successor
		if _, ok, err := snap.Get([]byte(gap)); ok || err != nil {
			t.Fatalf("%s: Get of absent key after %.12q… found=%v err=%v", label, k, ok, err)
		}
	}
	for n := 0; n < 200; n++ {
		target := tallKey(rng.Intn(6000))
		if n%2 == 1 {
			target = target[:rng.Intn(len(target))+1] // a prefix lands between keys
		}
		at := sort.SearchStrings(sorted, string(target))
		it := snap.Seek(target)
		for step := 0; step < 3 && at+step < len(sorted); step++ {
			if !it.Valid() || string(it.Key()) != sorted[at+step] {
				t.Fatalf("%s: Seek(%.12q…) step %d = %.12q…, want %.12q…", label, target, step, it.Key(), sorted[at+step])
			}
			it.Next()
		}
		if at+3 > len(sorted) && it.Valid() {
			t.Fatalf("%s: Seek(%.12q…) ran past the last key", label, target)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
}

// TestReadPathMatchesModel: the in-place read path — Get, Seek and full
// scans, none of which decode a page — agrees with a map model on a
// randomized tree of height three or more under interleaved Apply
// batches, both at the current epoch and on a snapshot opened midway,
// which reads the superseded page versions the later batches retain.
func TestReadPathMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	db := OpenMemory(&Options{CachePages: 64})
	defer db.Close()
	model := map[string]string{}
	apply := func(batches int) {
		for b := 0; b < batches; b++ {
			var batch Batch
			for n := rng.Intn(300) + 1; n > 0; n-- {
				k := string(tallKey(rng.Intn(6000)))
				if rng.Intn(4) == 0 {
					batch.Delete([]byte(k))
					delete(model, k)
					continue
				}
				v := fmt.Sprintf("v%d-%s", rng.Int(), bytes.Repeat([]byte{'x'}, rng.Intn(40)))
				batch.Put([]byte(k), []byte(v))
				model[k] = v
			}
			// Apply runs the deletes before the puts: replay that order on
			// the model, so a key both deleted and put ends up put.
			for i, k := range batch.keys {
				model[string(k)] = string(batch.vals[i])
			}
			if err := db.Apply(&batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	apply(30)
	if h := treeHeight(t, db); h < 3 {
		t.Fatalf("tree height %d, want >= 3", h)
	}
	old := db.OpenSnapshot()
	defer old.Close()
	oldModel := cloneModel(model)
	apply(30)
	if db.Stats().PagesRetained == 0 {
		t.Fatal("later batches retained no page versions for the old snapshot")
	}

	cur := db.OpenSnapshot()
	defer cur.Close()
	checkReadPath(t, "current", cur, model, rng)
	checkReadPath(t, "old snapshot", old, oldModel, rng)
}

// corruptRootStore builds a memory store whose root is an internal page
// and returns it with a copy of the root image and its entry offsets.
func corruptRootStore(t testing.TB) (*DB, []byte, []uint16) {
	t.Helper()
	db := OpenMemory(nil)
	var b Batch
	for i := 0; i < 400; i++ {
		b.Put(tallKey(i), []byte("v"))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	buf, err := db.pager.read(db.root)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != pageInternal {
		t.Fatalf("root page type %d, want internal", buf[0])
	}
	offs, err := indexPage(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db, append([]byte(nil), buf...), offs
}

// TestCorruptInternalPage: a truncated or garbled internal page makes Get
// and Seek fail with an error — never a panic, an out-of-range slice, or
// an endless descent.
func TestCorruptInternalPage(t *testing.T) {
	last := func(offs []uint16) int { return int(offs[len(offs)-1]) }
	cases := map[string]func(img []byte, offs []uint16, root uint32) []byte{
		"bad type byte": func(img []byte, _ []uint16, _ uint32) []byte { img[0] = 9; return img },
		"nkeys past the end": func(img []byte, offs []uint16, _ uint32) []byte {
			binary.BigEndian.PutUint16(img[1:], uint16(len(offs)+200))
			return img
		},
		"child area past the end": func(img []byte, _ []uint16, _ uint32) []byte {
			binary.BigEndian.PutUint16(img[1:], 1100)
			return img
		},
		"key length past the end": func(img []byte, offs []uint16, _ uint32) []byte {
			binary.BigEndian.PutUint16(img[last(offs):], 0xffff)
			return img
		},
		"truncated image": func(img []byte, offs []uint16, _ uint32) []byte { return img[:last(offs)+5] },
		"header only":     func(img []byte, _ []uint16, _ uint32) []byte { return img[:5] },
		"child cycle": func(img []byte, offs []uint16, root uint32) []byte {
			for i := 0; i <= len(offs); i++ {
				binary.BigEndian.PutUint32(img[3+4*i:], root)
			}
			return img
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			db, img, offs := corruptRootStore(t)
			defer db.Close()
			db.pager.install(db.root, corrupt(img, offs, db.root), db.epoch)
			for _, k := range [][]byte{tallKey(0), tallKey(200), tallKey(399), []byte("~")} {
				if _, _, err := db.Get(k); err == nil {
					t.Errorf("Get(%.12q…) on a corrupt root returned no error", k)
				}
				it := db.Seek(k)
				if it.Err() == nil {
					t.Errorf("Seek(%.12q…) on a corrupt root returned no error", k)
				}
				it.Close()
			}
		})
	}
}

// TestGetAllocs guards the copy-free Get: a lookup through an open
// snapshot with a prebuilt key reads every page on its path in place and
// allocates nothing, whatever the tree's height. When Get decoded pages it
// allocated a node, a copy of its entries and its key/value (or child)
// slices at every level: four allocations per level, 12 per call at
// height three.
func TestGetAllocs(t *testing.T) {
	db := OpenMemory(&Options{CachePages: 4096})
	defer db.Close()
	measured := 0
	for i := 0; measured < 4; i++ {
		var b Batch
		for j := 0; j < 10; j++ {
			b.Put(tallKey(i*10+j), []byte("value"))
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if treeHeight(t, db) <= measured {
			continue
		}
		measured = treeHeight(t, db)
		snap := db.OpenSnapshot()
		keys := [][]byte{tallKey(0), tallKey(i * 5), tallKey(i*10 + 9), tallKey(999999)}
		allocs := testing.AllocsPerRun(100, func() {
			for _, k := range keys {
				if _, _, err := snap.Get(k); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(keys))
		snap.Close()
		t.Logf("height %d: %.2f allocations per Get", measured, allocs)
		if allocs > 1 {
			t.Errorf("height %d: Snapshot.Get allocates %.2f times per call, want <= 1", measured, allocs)
		}
	}
}

// twoLeafStore builds a memory store whose root is an internal page over
// exactly two leaves, and returns it with the first leaf decoded.
func twoLeafStore(t testing.TB) (*DB, *node) {
	t.Helper()
	db := OpenMemory(nil)
	var b Batch
	for i := 0; i < 50; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{'v'}, 100))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	root, err := db.readNode(db.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.typ != pageInternal || len(root.children) != 2 {
		t.Fatalf("root: type %d with %d children, want an internal page over two leaves", root.typ, len(root.children))
	}
	first, err := db.readNode(root.children[0])
	if err != nil {
		t.Fatal(err)
	}
	return db, first
}

// TestCrossingCorruptLeaf: a leaf a scan enters by a crossing is checked
// entry by entry as the walk reaches it, so the scan yields the entries
// before a corrupt one and then ends with an error — never a panic, and
// never a silently short scan.
func TestCrossingCorruptLeaf(t *testing.T) {
	db, first := twoLeafStore(t)
	defer db.Close()
	root, err := db.pager.read(db.root)
	if err != nil {
		t.Fatal(err)
	}
	id := childAt(root, 1)
	img, err := db.pager.read(id)
	if err != nil {
		t.Fatal(err)
	}
	img = append([]byte(nil), img...)
	offs, err := indexPage(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(img[offs[2]:], 0xffff) // entry 2's key runs past the page
	db.pager.install(id, img, db.epoch)
	keys, _, err := scanAll(db)
	if err == nil || len(keys) != len(first.keys)+2 {
		t.Fatalf("scan over a corrupt third entry: %d keys, err %v; want %d keys and an error", len(keys), err, len(first.keys)+2)
	}
}

// FuzzPageImage hands the in-place page reader arbitrary page bytes,
// reached both ways a scan reaches a page. As the root of a store, Seek
// indexes it: Get, Seek and a full scan must fail cleanly or answer,
// never panic or loop; when the image decodes as a leaf, the scan must
// yield exactly the decoded entries, in page order, and a Get of a key of
// a strictly ascending leaf must find its value. As the second leaf
// behind a valid first one, the scan enters it by a crossing, which walks
// it entry by entry without indexing it: the scan must never panic, and
// when the image decodes as a leaf it must yield the first leaf's entries
// and then exactly the image's, with no error.
func FuzzPageImage(f *testing.F) {
	db, img, _ := corruptRootStore(f)
	leaf, err := db.pager.read(childAt(img, 0))
	if err != nil {
		f.Fatal(err)
	}
	db.Close()
	f.Add(img)
	f.Add(append([]byte(nil), leaf...))
	f.Add([]byte{pageLeaf, 0, 1, 0, 0, 0, 0, 0, 1, 'k', 0, 1, 'v'})
	f.Add([]byte{pageLeaf, 0, 2, 0, 0, 0, 0, 0, 1, 'k', 0, 1, 'v', 0, 1, 'l', 0xff, 0xff})
	f.Add([]byte{pageInternal, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'k'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		page := make([]byte, PageSize)
		copy(page, raw)
		n, err := deserialize(page)
		if err != nil || n.typ != pageLeaf {
			n = nil
		}
		fuzzRoot(t, page, n)
		fuzzSecondLeaf(t, page, n)
	})
}

// scanAll collects a full scan's entries and its error.
func scanAll(db *DB) (keys, vals [][]byte, err error) {
	it := db.First()
	for ; it.Valid(); it.Next() {
		keys = append(keys, it.Key())
		vals = append(vals, it.Value())
	}
	it.Close()
	return keys, vals, it.Err()
}

// fuzzRoot checks page installed as a store's root; n is its decoding
// when it decodes as a leaf.
func fuzzRoot(t *testing.T, page []byte, n *node) {
	db := OpenMemory(nil)
	defer db.Close()
	if err := db.Put([]byte("seed"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	db.pager.install(db.root, page, db.epoch)
	keys, vals, err := scanAll(db)
	db.Get(page[7:9])
	db.Seek(page[9:12]).Close()
	if n == nil {
		return
	}
	if err != nil || len(keys) != len(n.keys) {
		t.Fatalf("scan of a decodable leaf: %d keys (err %v), decoder %d", len(keys), err, len(n.keys))
	}
	ascending := true
	for i := range keys {
		if !bytes.Equal(keys[i], n.keys[i]) || !bytes.Equal(vals[i], n.vals[i]) {
			t.Fatalf("scan entry %d differs from the decoded leaf", i)
		}
		ascending = ascending && (i == 0 || bytes.Compare(keys[i-1], keys[i]) < 0)
	}
	for i := 0; ascending && i < len(keys); i++ {
		if v, ok, err := db.Get(keys[i]); err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("Get of leaf key %d = %q %v %v, want %q", i, v, ok, err, vals[i])
		}
	}
}

// fuzzSecondLeaf checks page installed as the second of two leaves; n is
// its decoding when it decodes as a leaf.
func fuzzSecondLeaf(t *testing.T, page []byte, n *node) {
	db, first := twoLeafStore(t)
	defer db.Close()
	root, err := db.pager.read(db.root)
	if err != nil {
		t.Fatal(err)
	}
	db.pager.install(childAt(root, 1), page, db.epoch)
	keys, vals, err := scanAll(db)
	if n == nil {
		return
	}
	want := len(first.keys) + len(n.keys)
	if err != nil || len(keys) != want {
		t.Fatalf("scan crossing into a decodable leaf: %d keys (err %v), want %d", len(keys), err, want)
	}
	for i := range keys {
		wk, wv := first.keys, first.vals
		j := i
		if i >= len(first.keys) {
			wk, wv, j = n.keys, n.vals, i-len(first.keys)
		}
		if !bytes.Equal(keys[i], wk[j]) || !bytes.Equal(vals[i], wv[j]) {
			t.Fatalf("scan entry %d differs from the decoded leaves", i)
		}
	}
}

// TestHasPrefixLeavesPoolCold: HasPrefix answers for prefixes before,
// among, between and after the keys of a reopened three-level tree, and
// leaves the buffer pool as it found it — a Get of the key it found
// still reads its whole root-to-leaf path.
func TestHasPrefixLeavesPoolCold(t *testing.T) {
	path := t.TempDir() + "/p.db"
	db, err := Open(path, &Options{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < 2000; i += 2 {
		b.Put(tallKey(i), []byte("v"))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	height := treeHeight(t, db)
	if height < 3 {
		t.Fatalf("tree of height %d, want at least 3", height)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path, &Options{CachePages: 64}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, c := range []struct {
		prefix string
		want   bool
	}{
		{"", true},
		{string(tallKey(1000)), true},
		{string(tallKey(1001)), false},
		{string(tallKey(1998)[:190]), true},
		{"1", false},
		{"/", false},
	} {
		if got, err := db.HasPrefix([]byte(c.prefix)); err != nil || got != c.want {
			t.Errorf("HasPrefix(%.12q…) = %v %v, want %v", c.prefix, got, err, c.want)
		}
	}
	before := db.Stats().BlocksRead
	if _, ok, err := db.Get(tallKey(1000)); err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if got := db.Stats().BlocksRead - before; got != int64(height) {
		t.Errorf("Get after HasPrefix read %d pages, want its whole path of %d", got, height)
	}
}
