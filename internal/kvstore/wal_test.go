package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestDurableCommitProtocol checks the happy path: a Sync leaves
// an empty log behind, counts a commit, and the data survives reopen.
func TestDurableCommitProtocol(t *testing.T) {
	fs := NewFaultFS()
	opts := &Options{FS: fs}
	db, err := Open("t.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.WALCommits != 1 {
		t.Errorf("WALCommits = %d, want 1", st.WALCommits)
	}
	if st.WALBytes == 0 {
		t.Error("WALBytes = 0, want > 0")
	}
	if wal := fs.FileBytes("t.db.wal"); len(wal) != 0 {
		t.Errorf("wal not truncated after commit: %d bytes", len(wal))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open("t.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, ok, err := db2.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("reopen Get = %q %v %v", v, ok, err)
	}
	if r := db2.Stats().Recoveries; r != 0 {
		t.Errorf("clean reopen counted %d recoveries", r)
	}
}

// TestCreateIsDurable: Open commits a new file's empty tree before it
// returns, so the first commit after it logs only the two pages that
// were already there (header and root) and writes the rest in place, and
// a crash anywhere in the creation — torn or not, with or without losing
// unsynced data — reopens as an empty store that takes the next commit.
func TestCreateIsDurable(t *testing.T) {
	rehearsal := NewFaultFS()
	db, err := Open("t.db", &Options{FS: rehearsal})
	if err != nil {
		t.Fatal(err)
	}
	creation := rehearsal.Writes()
	if creation == 0 {
		t.Fatal("creating the store wrote nothing")
	}
	before := db.Stats()
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if logged, pages := after.WALBytes-before.WALBytes, after.BlocksWritten-before.BlocksWritten; logged > 2*(PageSize+64) || pages < 50 {
		t.Errorf("first commit logged %d bytes for %d pages written, want at most two pages' records", logged, pages)
	}
	db.Close()

	for idx := int64(0); idx < creation; idx++ {
		for _, drop := range []bool{false, true} {
			fs := NewFaultFS()
			fs.CrashAfter(idx, int(idx)*100%PageSize, drop)
			if db, err := Open("t.db", &Options{FS: fs}); err == nil {
				db.Close()
				t.Fatalf("idx %d: crash never fired", idx)
			}
			fs.ClearFaults()
			db, err := Open("t.db", &Options{FS: fs})
			if err != nil {
				t.Fatalf("idx %d (drop %v): reopen: %v", idx, drop, err)
			}
			n := 0
			if err := db.Ascend(nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("idx %d (drop %v): %d keys in a store that was being created", idx, drop, n)
			}
			if err := db.Put([]byte("after"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open("t.db", &Options{FS: fs})
			if err != nil {
				t.Fatalf("idx %d (drop %v): second reopen: %v", idx, drop, err)
			}
			if v, ok, err := db.Get([]byte("after")); err != nil || !ok || string(v) != "1" {
				t.Fatalf("idx %d (drop %v): commit after the crash lost: %q %v %v", idx, drop, v, ok, err)
			}
			db.Close()
		}
	}
}

// TestDurableNoInPlaceWritesBetweenSyncs checks the pinning invariant the
// commit protocol relies on: nothing touches the files between Syncs,
// even when mutations overflow the buffer pool.
func TestDurableNoInPlaceWritesBetweenSyncs(t *testing.T) {
	fs := NewFaultFS()
	db, err := Open("t.db", &Options{FS: fs, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	created := fs.Writes() // Open's commit of the empty tree
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if n := fs.Writes() - created; n != 0 {
		t.Fatalf("%d file mutations before first Sync, want 0 (dirty pages must stay pinned)", n)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := fs.Writes() - created; n == 0 {
		t.Fatal("Sync performed no file mutations")
	}
	// Everything clean now: another Sync with no mutations must not
	// commit again.
	before := db.Stats().WALCommits
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if after := db.Stats().WALCommits; after != before {
		t.Errorf("empty Sync committed: %d -> %d", before, after)
	}
}

// TestPoolWithinCapacityAfterSync: dirty pages are pinned between
// commits, so a large commit overruns the pool; the commit that unpins
// them must bring every shard back to its capacity, and the trimmed
// pages must read back from the file.
func TestPoolWithinCapacityAfterSync(t *testing.T) {
	const cachePages = 16
	db, err := Open("t.db", &Options{FS: NewFaultFS(), CachePages: cachePages})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 1000)
	var keys, vals [][]byte
	for i := 0; i < 400; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%04d", i)))
		vals = append(vals, val)
	}
	if err := db.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := db.pager.npages.Load(); n < 4*cachePages {
		t.Fatalf("commit wrote %d pages, want at least %d", n, 4*cachePages)
	}
	for i := range db.pager.shards {
		s := &db.pager.shards[i]
		s.mu.Lock()
		n, c := len(s.cache), s.capacity
		s.mu.Unlock()
		if n > c {
			t.Errorf("shard %d holds %d pages after Sync, capacity %d", i, n, c)
		}
	}
	i := 0
	err = db.Ascend(nil, nil, func(k, v []byte) bool {
		if i >= len(keys) || !bytes.Equal(k, keys[i]) || !bytes.Equal(v, vals[i]) {
			t.Errorf("scan entry %d = %q, want %q", i, k, keys[min(i, len(keys)-1)])
			return false
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Errorf("scan returned %d entries, want %d", i, len(keys))
	}
}

// durableCommitScenario drives a two-commit workload and crashes at the
// first in-place store write of the second commit — the moment the log
// is complete but the store file untouched. It returns the store image
// at the first commit and the complete log bytes.
func durableCommitScenario(t testing.TB) (base, wal []byte) {
	t.Helper()
	run := func(crashAt int64) (*FaultFS, []byte) {
		fs := NewFaultFS()
		if crashAt >= 0 {
			fs.CrashAfter(crashAt, 0, false)
		}
		db, err := Open("t.db", &Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		img := fs.FileBytes("t.db")
		if err := db.Put([]byte("beta"), []byte("2")); err != nil {
			t.Fatal(err)
		}
		err = db.Sync() // crashes here in the fault run
		if crashAt >= 0 && !errors.Is(err, ErrCrashed) {
			t.Fatalf("Sync under crash = %v, want ErrCrashed", err)
		}
		if crashAt < 0 {
			if err != nil {
				t.Fatal(err)
			}
			db.Close()
		}
		return fs, img
	}

	// Rehearsal: count the mutations before the second Sync and the
	// pages it writes; the log phase of that Sync is pages+2 records
	// (header + one per page + commit), so the first in-place write is
	// mutation w0+pages+2. The workload is deterministic, so the fault
	// run hits the same indices.
	fs, img := run(-1)
	_ = fs
	rehearsal := NewFaultFS()
	db, err := Open("t.db", &Options{FS: rehearsal})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	w0 := rehearsal.Writes()
	before := db.Stats().BlocksWritten
	if err := db.Put([]byte("beta"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	pages := db.Stats().BlocksWritten - before
	db.Close()

	crashed, img2 := run(w0 + pages + 2)
	if !bytes.Equal(img, img2) {
		t.Fatal("rehearsal and fault run diverged before the crash point")
	}
	wal = crashed.FileBytes("t.db.wal")
	if got := crashed.FileBytes("t.db"); !bytes.Equal(got, img) {
		t.Fatal("store file modified before the commit record was durable")
	}
	if batches := parseWAL(wal, int64(len(img))/PageSize); len(batches) != 1 {
		t.Fatalf("captured log parses to %d batches, want 1", len(batches))
	}
	return img, wal
}

// TestWALTruncationSweep replays every prefix of a complete log: only
// the full log may recover (report a commit); every shorter prefix must
// be discarded, leaving the pre-commit state — a commit that wasn't
// fully written is never reported.
func TestWALTruncationSweep(t *testing.T) {
	base, wal := durableCommitScenario(t)
	for l := 0; l <= len(wal); l++ {
		fs := NewFaultFS()
		fs.WriteFile("t.db", base)
		fs.WriteFile("t.db.wal", wal[:l])
		db, err := Open("t.db", &Options{FS: fs})
		if err != nil {
			t.Fatalf("prefix %d/%d: Open: %v", l, len(wal), err)
		}
		wantRecovered := l == len(wal)
		if got := db.Stats().Recoveries == 1; got != wantRecovered {
			t.Fatalf("prefix %d/%d: recovered=%v, want %v", l, len(wal), got, wantRecovered)
		}
		_, okBeta, err := db.Get([]byte("beta"))
		if err != nil {
			t.Fatalf("prefix %d: Get beta: %v", l, err)
		}
		if okBeta != wantRecovered {
			t.Fatalf("prefix %d: beta present=%v, want %v", l, okBeta, wantRecovered)
		}
		v, ok, err := db.Get([]byte("alpha"))
		if err != nil || !ok || string(v) != "1" {
			t.Fatalf("prefix %d: committed key lost: %q %v %v", l, v, ok, err)
		}
		if leftover := fs.FileBytes("t.db.wal"); len(leftover) != 0 {
			t.Fatalf("prefix %d: wal not emptied after open (%d bytes)", l, len(leftover))
		}
		db.Close()
	}
}

// TestWALCorruptionDiscarded flips one byte at a time through the log
// body: a checksum failure anywhere must prevent the (now untrustworthy)
// commit from replaying, and Open must still succeed on the pre-commit
// state. Flips confined to the already-applied commit's page data are
// caught by the page CRC; flips in the commit record by its own CRC.
func TestWALCorruptionDiscarded(t *testing.T) {
	base, wal := durableCommitScenario(t)
	// Sample positions across the log (every 97th byte keeps the sweep
	// fast while hitting header, page records, and the commit record).
	for pos := 0; pos < len(wal); pos += 97 {
		mut := append([]byte(nil), wal...)
		mut[pos] ^= 0xff
		fs := NewFaultFS()
		fs.WriteFile("t.db", base)
		fs.WriteFile("t.db.wal", mut)
		db, err := Open("t.db", &Options{FS: fs})
		if err != nil {
			t.Fatalf("flip @%d: Open: %v", pos, err)
		}
		if db.Stats().Recoveries != 0 {
			t.Fatalf("flip @%d: corrupt log replayed", pos)
		}
		v, ok, err := db.Get([]byte("alpha"))
		if err != nil || !ok || string(v) != "1" {
			t.Fatalf("flip @%d: committed key lost: %q %v %v", pos, v, ok, err)
		}
		db.Close()
	}
}

// TestFreshPagesCrashSweep crashes a commit that rewrites every leaf of
// a store and splits a few of them, at every file mutation it makes,
// with the crashing write torn at several lengths and with and without
// the unsynced writes dropped. The split-off pages are fresh: they go in
// place, and are fsynced, before the log is written. So the crash can
// leave the store file longer than its header says, or not a whole
// number of pages, and a log whose commit record is durable must find
// them in the file; every reopen gives the state before the commit or
// after it.
func TestFreshPagesCrashSweep(t *testing.T) {
	base, grown := map[string]string{}, map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%04d", 2*i)
		base[k] = strings.Repeat("a", 300)
		grown[k] = strings.Repeat("b", 300)
	}
	for i := 0; i < 20; i++ {
		grown[fmt.Sprintf("k%04d", 20*i+1)] = strings.Repeat("c", 300)
	}
	apply := func(db *DB, m map[string]string) error {
		var b Batch
		for k, v := range m {
			b.Put([]byte(k), []byte(v))
		}
		return db.Apply(&b)
	}
	// run commits base, then grown with a crash armed at mutation crash
	// (-1: none); it returns the mutation range of the second Sync.
	run := func(fs *FaultFS, crash int64, tear int, drop bool) (int64, int64) {
		db, err := Open("t.db", &Options{FS: fs, CachePages: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := apply(db, base); err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		w0, before := fs.Writes(), db.Stats()
		if crash >= 0 {
			fs.CrashAfter(crash, tear, drop)
		}
		if err := apply(db, grown); err != nil {
			t.Fatal(err)
		}
		err = db.Sync()
		if crash >= 0 && !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash@%d: Sync = %v, want ErrCrashed", crash, err)
		}
		if crash < 0 {
			if err != nil {
				t.Fatal(err)
			}
			after := db.Stats()
			pages := after.BlocksWritten - before.BlocksWritten
			logged := (after.WALBytes - before.WALBytes) / walPageRecSize
			t.Logf("the commit writes %d pages, %d of them logged, in mutations %d to %d", pages, logged, w0, fs.Writes()-1)
			if logged == pages || logged < 4 {
				t.Fatalf("the commit logged %d of its %d pages: it has no fresh pages, or too few logged ones", logged, pages)
			}
		}
		return w0, fs.Writes()
	}
	w0, w1 := run(NewFaultFS(), -1, 0, false)
	for crash := w0; crash < w1; crash++ {
		for _, tear := range []int{0, 100, PageSize, PageSize + PageSize/2} {
			for _, drop := range []bool{false, true} {
				name := fmt.Sprintf("crash@%d/tear=%d/drop=%v", crash, tear, drop)
				fs := NewFaultFS()
				run(fs, crash, tear, drop)
				fs.ClearFaults()
				db, err := Open("t.db", &Options{FS: fs})
				if err != nil {
					t.Fatalf("%s: reopen: %v", name, err)
				}
				got := map[string]string{}
				if err := db.Ascend(nil, nil, func(k, v []byte) bool {
					got[string(k)] = string(v)
					return true
				}); err != nil {
					t.Fatalf("%s: scan: %v", name, err)
				}
				if !reflect.DeepEqual(got, base) && !reflect.DeepEqual(got, grown) {
					t.Fatalf("%s: reopened with %d keys, neither the old state (%d) nor the new (%d)", name, len(got), len(base), len(grown))
				}
				if err := db.Close(); err != nil {
					t.Fatalf("%s: close: %v", name, err)
				}
			}
		}
	}
}
