package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitBatchesConcurrentSyncs is the deterministic grouping
// proof: while a flush is (apparently) in progress, concurrent Sync
// callers accumulate on one ticket; when the flush slot frees, exactly
// one of them leads a single commit covering all of them. White-box — it
// drives the ticket state directly so the grouping does not depend on
// scheduler timing.
func TestGroupCommitBatchesConcurrentSyncs(t *testing.T) {
	fs := NewFaultFS()
	db, err := Open("t.db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const members = 4
	for i := 0; i < members; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats()

	// Occupy the flush slot so every Sync below parks on the same ticket.
	db.gc.mu.Lock()
	db.gc.flushing = true
	db.gc.mu.Unlock()

	var wg sync.WaitGroup
	errs := make(chan error, members)
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- db.Sync()
		}()
	}
	// Wait until all members joined the pending ticket.
	deadline := time.Now().Add(5 * time.Second)
	for {
		db.gc.mu.Lock()
		n := 0
		if db.gc.cur != nil {
			n = db.gc.cur.members
		}
		db.gc.mu.Unlock()
		if n == members {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d members joined the ticket", n, members)
		}
		time.Sleep(time.Millisecond)
	}
	// Free the slot, as a finishing flush would: one parked member takes
	// the leader seat and commits for everyone.
	db.gc.mu.Lock()
	db.gc.flushing = false
	close(db.gc.wake)
	db.gc.wake = make(chan struct{})
	db.gc.mu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	after := db.Stats()
	if got := after.SyncCalls - before.SyncCalls; got != members {
		t.Errorf("SyncCalls delta = %d, want %d", got, members)
	}
	if got := after.GroupCommits - before.GroupCommits; got != 1 {
		t.Errorf("GroupCommits delta = %d, want 1 (one leader for the whole group)", got)
	}
	if got := after.WALFsyncs - before.WALFsyncs; got != 1 {
		t.Errorf("WALFsyncs delta = %d, want 1 (one commit-record fsync shared by %d Syncs)", got, members)
	}
	// And the shared flush really covered every member's pages.
	db2, err := Open("t.db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < members; i++ {
		if _, ok, err := db2.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
			t.Errorf("k%d missing after group commit (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestGroupedTxnsAtomicCrashSweep crashes at every write index inside a
// Sync whose batch covers two committed transactions, and checks the
// recovered store holds both keys or neither — a grouped flush replays
// all-or-none, never a prefix of its member transactions.
func TestGroupedTxnsAtomicCrashSweep(t *testing.T) {
	// Baseline run: count the writes the grouped Sync performs.
	ops := func(db *DB) error {
		if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
			return err
		}
		return db.Put([]byte("beta"), []byte("2"))
	}
	fs := NewFaultFS()
	db, err := Open("t.db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := ops(db); err != nil {
		t.Fatal(err)
	}
	w0 := fs.Writes()
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	w1 := fs.Writes()
	if w1 <= w0 {
		t.Fatalf("grouped Sync performed no writes (%d..%d)", w0, w1)
	}

	for crash := w0; crash < w1; crash++ {
		for _, tear := range []int{0, PageSize / 2} {
			name := fmt.Sprintf("crash@%d/tear=%d", crash, tear)
			fs := NewFaultFS()
			fs.CrashAfter(crash, tear, false)
			db, err := Open("t.db", &Options{FS: fs})
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			if err := ops(db); err != nil {
				t.Fatalf("%s: ops: %v", name, err)
			}
			if err := db.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("%s: Sync = %v, want ErrCrashed", name, err)
			}
			fs.ClearFaults()
			db2, err := Open("t.db", &Options{FS: fs})
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			_, okA, errA := db2.Get([]byte("alpha"))
			_, okB, errB := db2.Get([]byte("beta"))
			if errA != nil || errB != nil {
				t.Fatalf("%s: recovered gets: %v / %v", name, errA, errB)
			}
			if okA != okB {
				t.Fatalf("%s: partial batch recovered: alpha=%v beta=%v (grouped txns must be all-or-none)", name, okA, okB)
			}
			db2.Close()
		}
	}
}

// TestConcurrentDurableSyncs: N writers each Put+Sync in a loop; every
// acked Sync must be durable, and the whole run must not need one WAL
// commit fsync per Sync call (the amortization the group exists for is
// only asserted loosely here — the scheduler decides the actual
// grouping; the deterministic bound lives in
// TestGroupCommitBatchesConcurrentSyncs).
func TestConcurrentDurableSyncs(t *testing.T) {
	fs := NewFaultFS()
	db, err := Open("t.db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		rounds  = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := []byte(fmt.Sprintf("w%02d-r%03d", w, r))
				if err := db.Put(k, []byte("v")); err != nil {
					errs <- err
					return
				}
				if err := db.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.SyncCalls != writers*rounds {
		t.Errorf("SyncCalls = %d, want %d", st.SyncCalls, writers*rounds)
	}
	if st.GroupCommits > st.SyncCalls {
		t.Errorf("GroupCommits %d > SyncCalls %d", st.GroupCommits, st.SyncCalls)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open("t.db", &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			k := []byte(fmt.Sprintf("w%02d-r%03d", w, r))
			if _, ok, err := db2.Get(k); err != nil || !ok {
				t.Fatalf("acked key %s missing after reopen (ok=%v err=%v)", k, ok, err)
			}
		}
	}
}
