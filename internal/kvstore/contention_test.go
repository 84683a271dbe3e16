package kvstore

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xmorph/internal/obs"
)

func TestLockTimedHelpers(t *testing.T) {
	t.Run("uncontended observes nothing", func(t *testing.T) {
		h := obs.NewHistogram(obs.WaitBuckets)
		var mu sync.Mutex
		lockTimed(&mu, h)
		mu.Unlock()
		if got := h.Snapshot().Count; got != 0 {
			t.Errorf("uncontended acquisitions observed %d waits", got)
		}
	})

	t.Run("contended wait is observed", func(t *testing.T) {
		h := obs.NewHistogram(obs.WaitBuckets)
		var mu sync.Mutex
		mu.Lock()
		done := make(chan struct{})
		go func() {
			lockTimed(&mu, h)
			mu.Unlock()
			close(done)
		}()
		// Give the acquirer time to fail TryLock and block.
		time.Sleep(5 * time.Millisecond)
		mu.Unlock()
		<-done
		if got := h.Snapshot().Count; got != 1 {
			t.Errorf("contended acquisition observed %d waits, want 1", got)
		}
	})
}

// TestWriterNotBlockedByScan is the MVCC inversion of the old
// reader/writer contention test: a Put issued while a scan is mid-flight
// must complete *during* the scan (the pre-MVCC read lock would hold it
// until the scan finished — this test would deadlock), and the scan,
// frozen at its snapshot's epoch, must not see the concurrently
// committed key.
func TestWriterNotBlockedByScan(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "contention.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	putDone := make(chan error, 1)
	var once sync.Once
	sawContender := false
	err = db.Ascend(nil, nil, func(k, v []byte) bool {
		once.Do(func() {
			go func() { putDone <- db.Put([]byte("contender"), []byte("v")) }()
			// The scan does not advance until the concurrent Put has
			// committed; under a tree-wide read lock this would deadlock.
			if err := <-putDone; err != nil {
				t.Error(err)
			}
		})
		if string(k) == "contender" {
			sawContender = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawContender {
		t.Error("snapshot scan observed a key committed after it opened")
	}
	if v, ok, err := db.Get([]byte("contender")); err != nil || !ok || string(v) != "v" {
		t.Errorf("post-scan Get(contender) = %q, %v, %v; want committed value", v, ok, err)
	}
}

// TestDBContentionObserved pins the new histograms to the locks they
// watch: a writer queued behind writerMu and a snapshot open queued
// behind publishMu must each land one observation.
func TestDBContentionObserved(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "contention2.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	t.Run("writer lock", func(t *testing.T) {
		before := writerLockWait.Snapshot().Count
		db.writerMu.Lock()
		done := make(chan error, 1)
		go func() { done <- db.Put([]byte("w"), []byte("v")) }()
		time.Sleep(5 * time.Millisecond) // let the Put fail TryLock and block
		db.writerMu.Unlock()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := writerLockWait.Snapshot().Count; got <= before {
			t.Error("writer queued behind writerMu was not observed in kvstore_writer_lock_wait_seconds")
		}
	})

	t.Run("publish lock", func(t *testing.T) {
		before := publishLockWait.Snapshot().Count
		db.publishMu.Lock()
		done := make(chan struct{})
		go func() { db.OpenSnapshot().Close(); close(done) }()
		time.Sleep(5 * time.Millisecond)
		db.publishMu.Unlock()
		<-done
		if got := publishLockWait.Snapshot().Count; got <= before {
			t.Error("snapshot open queued behind publishMu was not observed in kvstore_publish_lock_wait_seconds")
		}
	})
}

func TestFsyncHistogramsObserved(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "fsync.db"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	walBefore := walFsyncTime.Snapshot().Count
	fileBefore := fileFsyncTime.Snapshot().Count
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// One commit = WAL append fsync + page-file fsync + WAL reset fsync.
	if got := walFsyncTime.Snapshot().Count - walBefore; got < 2 {
		t.Errorf("wal fsyncs observed = %d, want >= 2", got)
	}
	if got := fileFsyncTime.Snapshot().Count - fileBefore; got < 1 {
		t.Errorf("file fsyncs observed = %d, want >= 1", got)
	}
}
