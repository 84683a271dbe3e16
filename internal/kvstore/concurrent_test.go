package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// stressDB builds a file-backed store with eight disjoint reader
// prefixes r0/..r7/ plus one shared prefix sh/ that every reader scans,
// sized so scans cross many leaves and the small pool keeps evicting.
func stressDB(t *testing.T) (*DB, int) {
	t.Helper()
	const perPrefix = 800
	db, err := Open(t.TempDir()+"/stress.db", &Options{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var ks, vs [][]byte
	pad := bytes.Repeat([]byte{'.'}, 120)
	for p := 0; p < 8; p++ {
		for i := 0; i < perPrefix; i++ {
			ks = append(ks, []byte(fmt.Sprintf("r%d/%05d", p, i)))
			vs = append(vs, append([]byte(fmt.Sprintf("val-%d-%d", p, i)), pad...))
		}
	}
	for i := 0; i < perPrefix; i++ {
		ks = append(ks, []byte(fmt.Sprintf("sh/%05d", i)))
		vs = append(vs, append([]byte(fmt.Sprintf("shared-%d", i)), pad...))
	}
	if err := db.PutBatch(ks, vs); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	return db, perPrefix
}

// scanOracle runs one sequential AscendPrefix and returns the
// concatenated key=value stream — the byte-exact answer every
// concurrent scan of that prefix must reproduce.
func scanOracle(t *testing.T, db *DB, prefix string) []byte {
	t.Helper()
	var out []byte
	err := db.AscendPrefix([]byte(prefix), func(k, v []byte) bool {
		out = append(out, k...)
		out = append(out, '=')
		out = append(out, v...)
		out = append(out, '\n')
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReaderScalabilityStress: eight goroutines hammer one shared DB
// with Gets and AscendPrefix scans — each over its own prefix, its
// neighbor's prefix (so shard and page ownership overlaps), and the
// shared prefix — while the pool keeps evicting. Run under -race this
// guards the sharded pool's locking; every result must be byte-identical
// to the sequential oracle captured up front.
func TestReaderScalabilityStress(t *testing.T) {
	db, perPrefix := stressDB(t)

	oracles := make(map[string][]byte)
	for p := 0; p < 8; p++ {
		prefix := fmt.Sprintf("r%d/", p)
		oracles[prefix] = scanOracle(t, db, prefix)
	}
	oracles["sh/"] = scanOracle(t, db, "sh/")

	const readers, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("r%d/", g)
			neighbor := fmt.Sprintf("r%d/", (g+1)%readers)
			for round := 0; round < rounds; round++ {
				for _, prefix := range []string{own, neighbor, "sh/"} {
					var got []byte
					err := db.AscendPrefix([]byte(prefix), func(k, v []byte) bool {
						got = append(got, k...)
						got = append(got, '=')
						got = append(got, v...)
						got = append(got, '\n')
						return true
					})
					if err != nil {
						t.Errorf("reader %d: scan %s: %v", g, prefix, err)
						return
					}
					if !bytes.Equal(got, oracles[prefix]) {
						t.Errorf("reader %d: concurrent scan of %s differs from sequential oracle (%d vs %d bytes)",
							g, prefix, len(got), len(oracles[prefix]))
						return
					}
				}
				for i := 0; i < 64; i++ {
					idx := (g*131 + round*17 + i*29) % perPrefix
					key := fmt.Sprintf("r%d/%05d", (g+i)%readers, idx)
					want := append([]byte(fmt.Sprintf("val-%d-%d", (g+i)%readers, idx)), bytes.Repeat([]byte{'.'}, 120)...)
					v, ok, err := db.Get([]byte(key))
					if err != nil || !ok || !bytes.Equal(v, want) {
						t.Errorf("reader %d: Get(%s) = %q %v %v, want %q", g, key, v, ok, err, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The pool must have been under real pressure and real sharing for
	// the run to mean anything.
	st := db.Stats()
	if st.Evictions == 0 {
		t.Error("stress run never evicted — pool too large to exercise shard LRU")
	}
	if st.CacheHits == 0 {
		t.Error("stress run never hit the pool")
	}
}

// TestScanCrossingsUnderCommits: readers scan snapshots across many
// leaves — every leaf past a scan's first is entered by a crossing and
// walked unindexed — while a writer splits leaves with inserts and
// empties runs of them with deletes (the tree never merges leaves, so an
// emptied leaf stays for the walk to step over), syncing as it goes so
// the small pool evicts. Run under -race this guards the crossing walk
// against commits: every scan must be strictly ascending and equal its
// own snapshot's Get of each key of the key space.
func TestScanCrossingsUnderCommits(t *testing.T) {
	const space, readers = 3000, 4
	db, err := Open(t.TempDir()+"/crossings.db", &Options{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("c%05d", i)) }
	val := func(round, i int) []byte {
		return append([]byte(fmt.Sprintf("%d/%d/", round, i)), bytes.Repeat([]byte{'x'}, (round*7+i)%90)...)
	}
	var b Batch
	for i := 0; i < space; i += 2 {
		b.Put(key(i), val(0, i))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(34))
		for round := 1; round <= 120; round++ {
			var b Batch
			if round%3 == 0 {
				from := rng.Intn(space)
				for i := from; i < from+400 && i < space; i++ {
					b.Delete(key(i))
				}
			} else {
				for n := 0; n < 250; n++ {
					i := rng.Intn(space)
					b.Put(key(i), val(round, i))
				}
			}
			if err := db.Apply(&b); err != nil {
				t.Error(err)
				return
			}
			if round%10 == 0 {
				if err := db.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var scans [readers]int
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					if scans[g] > 0 {
						return
					}
				default:
				}
				if err := checkSnapshotScan(db, space, key); err != nil {
					t.Errorf("reader %d, scan %d: %v", g, scans[g], err)
					return
				}
				scans[g]++
			}
		}(g)
	}
	wg.Wait()
	t.Logf("scans per reader: %v", scans)
}

// checkSnapshotScan scans a fresh snapshot from its first key and checks
// the scan against the snapshot's Get of every key of the key space.
func checkSnapshotScan(db *DB, space int, key func(int) []byte) error {
	snap := db.OpenSnapshot()
	defer snap.Close()
	scanned := map[string]string{}
	var prev []byte
	it := snap.First()
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			return fmt.Errorf("key %q after %q", it.Key(), prev)
		}
		prev = it.Key()
		scanned[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		return err
	}
	found := 0
	for i := 0; i < space; i++ {
		v, ok, err := snap.Get(key(i))
		if err != nil {
			return err
		}
		if sv, in := scanned[string(key(i))]; in != ok || sv != string(v) {
			return fmt.Errorf("%s: scan has %v %.12q…, Get has %v %.12q…", key(i), in, sv, ok, v)
		}
		if ok {
			found++
		}
	}
	if found != len(scanned) {
		return fmt.Errorf("scan saw %d keys, Get finds %d", len(scanned), found)
	}
	return nil
}
