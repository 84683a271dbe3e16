package kvstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCloseDuringGroupCommit is the regression test for closing a DB
// while group-commit tickets are in flight: every concurrent Sync must
// return (the shared flush result or ErrClosed, never a hang), a
// follower parked on the commit ticket must be woken, blocked
// replication subscribers must observe the shutdown, and no goroutine
// may leak.
func TestCloseDuringGroupCommit(t *testing.T) {
	baseline := runtime.NumGoroutine()

	for iter := 0; iter < 20; iter++ {
		path := fmt.Sprintf("%s/c%d.db", t.TempDir(), iter)
		// A generous follower window maximizes the chance Close lands
		// while a leader is parked waiting for followers.
		db, err := Open(path, &Options{Durability: true})
		if err != nil {
			t.Fatal(err)
		}
		db.gcWait = 5 * time.Millisecond

		sub, err := db.SubscribeCommits()
		if err != nil {
			t.Fatal(err)
		}
		// Drain the bootstrap, then block in Next until Close wakes us.
		if _, ok := sub.Next(); !ok {
			t.Fatal("bootstrap missing")
		}
		subDone := make(chan bool, 1)
		go func() {
			for {
				if _, ok := sub.Next(); !ok {
					subDone <- true
					return
				}
			}
		}()

		const writers = 8
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				key := []byte(fmt.Sprintf("w%d-%d", iter, w))
				if err := db.Put(key, []byte("v")); err != nil {
					errs[w] = err
					return
				}
				errs[w] = db.Sync()
			}(w)
		}
		// Let some writers reach the ticket before Close races in.
		if iter%2 == 0 {
			time.Sleep(time.Millisecond)
		}
		closeErr := db.Close()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: Sync callers hung after Close", iter)
		}
		if closeErr != nil {
			t.Fatalf("iter %d: close: %v", iter, closeErr)
		}
		for w, err := range errs {
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("iter %d writer %d: %v", iter, w, err)
			}
		}
		// Post-close contract.
		if err := db.Sync(); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: Sync after Close = %v, want ErrClosed", iter, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("iter %d: second Close = %v, want nil", iter, err)
		}
		if _, err := db.SubscribeCommits(); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: Subscribe after Close = %v, want ErrClosed", iter, err)
		}
		select {
		case <-subDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: subscriber still blocked in Next after Close", iter)
		}
	}

	// Give runtime-managed goroutines a moment to unwind, then check for
	// leaks from the commit path (parked followers, subscriber pumps).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestCloseFlushesPendingCommits checks Close's final flush makes
// committed-but-unsynced data durable.
func TestCloseFlushesPendingCommits(t *testing.T) {
	path := t.TempDir() + "/flush.db"
	db, err := Open(path, &Options{Durability: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("pending"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	// No explicit Sync: Close must flush.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, &Options{Durability: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, ok, err := db2.Get([]byte("pending"))
	if err != nil || !ok || string(v) != "value" {
		t.Fatalf("reopened read %q/%v/%v, want value", v, ok, err)
	}
}
