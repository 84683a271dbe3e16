package kvstore

import (
	"bytes"
	"fmt"
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
