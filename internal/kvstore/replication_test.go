package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// repDumpAll collects every key/value pair of a DB in order.
func repDumpAll(t *testing.T, db *DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := db.Ascend(nil, nil, func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("ascend: %v", err)
	}
	return out
}

// applyAvailable drains every queued batch into the follower.
func applyAvailable(t *testing.T, sub *CommitSub, follower *DB) {
	t.Helper()
	for sub.Pending() > 0 {
		b, ok := sub.Next()
		if !ok {
			t.Fatalf("subscription closed mid-drain")
		}
		if err := follower.ApplyCommitBatch(b); err != nil {
			t.Fatalf("apply LSN %d: %v", b.LSN, err)
		}
	}
}

func assertSameState(t *testing.T, leader, follower *DB) {
	t.Helper()
	lDump, fDump := repDumpAll(t, leader), repDumpAll(t, follower)
	if len(lDump) != len(fDump) {
		t.Fatalf("follower has %d keys, leader %d", len(fDump), len(lDump))
	}
	for k, v := range lDump {
		if fv, ok := fDump[k]; !ok || fv != v {
			t.Fatalf("key %q: follower %q (present=%v), leader %q", k, fDump[k], ok, v)
		}
	}
	// Follower epochs are leader epochs plus a fixed rebase offset, so
	// they track the leader's progression without ever being behind it.
	if le, fe := leader.Stats().Epoch, follower.Stats().Epoch; fe < le {
		t.Fatalf("follower epoch %d behind leader %d", fe, le)
	}
}

func TestReplicationBootstrapAndIncremental(t *testing.T) {
	leader := OpenMemory(nil)
	defer leader.Close()
	for i := 0; i < 200; i++ {
		if err := leader.Put([]byte(fmt.Sprintf("pre-%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}

	sub, err := leader.SubscribeCommits()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follower := OpenMemory(nil)
	defer follower.Close()

	// Bootstrap carries the pre-subscription state.
	boot, ok := sub.Next()
	if !ok {
		t.Fatal("no bootstrap batch")
	}
	if boot.LSN != 0 {
		t.Fatalf("bootstrap LSN = %d, want 0", boot.LSN)
	}
	if err := follower.ApplyCommitBatch(boot); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, leader, follower)

	// Incremental rounds: mutate, sync, apply, compare.
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("r%d-%04d", round, i))
			if err := leader.Put(key, bytes.Repeat([]byte{byte('a' + round)}, 20+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := leader.Delete([]byte(fmt.Sprintf("pre-%04d", round))); err != nil {
			t.Fatal(err)
		}
		if err := leader.Sync(); err != nil {
			t.Fatal(err)
		}
		applyAvailable(t, sub, follower)
		assertSameState(t, leader, follower)
		if got := follower.AppliedLSN(); got != uint64(round+1) {
			t.Fatalf("round %d: applied LSN = %d, want %d", round, got, round+1)
		}
	}
	if lsn := leader.CommitLSN(); lsn != 5 {
		t.Fatalf("leader commit LSN = %d, want 5", lsn)
	}
}

// TestReplicationSurvivesEviction pins the repDirty-vs-dirty-flag
// distinction: a memory-backed leader with a tiny pool evicts (and
// copies) dirty pages between commits, clearing their flush flags — the
// replication cut must still carry them.
func TestReplicationSurvivesEviction(t *testing.T) {
	leader := OpenMemory(&Options{CachePages: 16})
	defer leader.Close()
	sub, err := leader.SubscribeCommits()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follower := OpenMemory(nil)
	defer follower.Close()

	// Far more pages than the pool holds, in one commit interval.
	val := bytes.Repeat([]byte("x"), 900)
	for i := 0; i < 500; i++ {
		if err := leader.Put([]byte(fmt.Sprintf("big-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if ev := leader.Stats().Evictions; ev == 0 {
		t.Fatalf("workload did not evict (evictions=0); enlarge it")
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	boot, _ := sub.Next()
	if err := follower.ApplyCommitBatch(boot); err != nil {
		t.Fatal(err)
	}
	applyAvailable(t, sub, follower)
	assertSameState(t, leader, follower)
}

// TestReplicationFollowerSnapshotIsolation checks a follower keeps full
// MVCC semantics: a snapshot opened before a batch applies keeps reading
// the pre-batch epoch.
func TestReplicationFollowerSnapshotIsolation(t *testing.T) {
	leader := OpenMemory(nil)
	defer leader.Close()
	if err := leader.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	sub, err := leader.SubscribeCommits()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follower := OpenMemory(nil)
	defer follower.Close()
	boot, _ := sub.Next()
	if err := follower.ApplyCommitBatch(boot); err != nil {
		t.Fatal(err)
	}

	snap := follower.OpenSnapshot()
	defer snap.Close()

	if err := leader.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	applyAvailable(t, sub, follower)

	if v, ok, err := snap.Get([]byte("k")); err != nil || !ok || string(v) != "old" {
		t.Fatalf("pinned snapshot read %q/%v/%v, want old", v, ok, err)
	}
	if v, ok, err := follower.Get([]byte("k")); err != nil || !ok || string(v) != "new" {
		t.Fatalf("live follower read %q/%v/%v, want new", v, ok, err)
	}
}

// TestReplicationRandomizedModel drives a leader with random mutations
// and syncs, mirrors every batch into a follower, and checks both
// against an in-memory model after each applied cut.
func TestReplicationRandomizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	leader := OpenMemory(&Options{CachePages: 32})
	defer leader.Close()
	sub, err := leader.SubscribeCommits()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follower := OpenMemory(nil)
	defer follower.Close()
	boot, _ := sub.Next()
	if err := follower.ApplyCommitBatch(boot); err != nil {
		t.Fatal(err)
	}

	model := map[string]string{}
	for round := 0; round < 30; round++ {
		for op := 0; op < 40; op++ {
			key := fmt.Sprintf("k%03d", rng.Intn(300))
			if rng.Intn(4) == 0 {
				if err := leader.Delete([]byte(key)); err != nil {
					t.Fatal(err)
				}
				delete(model, key)
			} else {
				val := fmt.Sprintf("r%d-%d", round, rng.Intn(1000))
				if err := leader.Put([]byte(key), []byte(val)); err != nil {
					t.Fatal(err)
				}
				model[key] = val
			}
		}
		if err := leader.Sync(); err != nil {
			t.Fatal(err)
		}
		applyAvailable(t, sub, follower)
		got := repDumpAll(t, follower)
		if len(got) != len(model) {
			t.Fatalf("round %d: follower %d keys, model %d", round, len(got), len(model))
		}
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("round %d key %q: follower %q, model %q", round, k, got[k], v)
			}
		}
	}
}

// TestReplicationLateSubscriber bootstraps after history already
// happened and checks only the current state ships, then increments.
func TestReplicationLateSubscriber(t *testing.T) {
	leader := OpenMemory(nil)
	defer leader.Close()
	for i := 0; i < 100; i++ {
		if err := leader.Put([]byte(fmt.Sprintf("h%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := leader.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}

	sub, err := leader.SubscribeCommits()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follower := OpenMemory(nil)
	defer follower.Close()
	boot, _ := sub.Next()
	if err := follower.ApplyCommitBatch(boot); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, leader, follower)

	if err := leader.Put([]byte("late"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	applyAvailable(t, sub, follower)
	assertSameState(t, leader, follower)
}

// TestReplicationStaleBatchRejected guards the ordering contract.
func TestReplicationStaleBatchRejected(t *testing.T) {
	leader := OpenMemory(nil)
	defer leader.Close()
	sub, err := leader.SubscribeCommits()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follower := OpenMemory(nil)
	defer follower.Close()
	boot, _ := sub.Next()
	if err := follower.ApplyCommitBatch(boot); err != nil {
		t.Fatal(err)
	}
	if err := leader.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	b, _ := sub.Next()
	if err := follower.ApplyCommitBatch(b); err != nil {
		t.Fatal(err)
	}
	// Re-applying the old bootstrap must be refused: its epoch is behind.
	if err := follower.ApplyCommitBatch(boot); err == nil {
		t.Fatal("stale bootstrap applied without error")
	}
}

// TestReplicationFileBackedLeader ships batches from a durable
// file-backed leader (the cluster's production shape).
func TestReplicationFileBackedLeader(t *testing.T) {
	path := t.TempDir() + "/leader.db"
	leader, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	sub, err := leader.SubscribeCommits()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	follower := OpenMemory(nil)
	defer follower.Close()
	boot, _ := sub.Next()
	if err := follower.ApplyCommitBatch(boot); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := leader.Put([]byte(fmt.Sprintf("d%04d", i)), bytes.Repeat([]byte("y"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	applyAvailable(t, sub, follower)
	assertSameState(t, leader, follower)
}
