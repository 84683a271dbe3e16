package kvstore

import (
	"sync"
	"time"

	"xmorph/internal/obs"
)

// Contention and durability instruments for the MVCC/group-commit
// design: how long writers queue behind each other (writerMu), how hot
// the commit-publish lock and the version-table lock run, how hot the
// buffer-pool shard mutexes are, what each commit's fsyncs cost, and
// how many Sync callers each group commit absorbs.
//
// Lock waits are TryLock-gated: an uncontended acquisition takes the
// fast path (one extra CAS over a bare Lock) and never reads the clock;
// only acquisitions that actually block are timed and observed. The
// histograms therefore count *contended* acquisitions — their count is
// a contention-event counter and their quantiles are wait times. Note
// what is *absent* relative to the pre-MVCC design: there is no
// tree-wide reader/writer lock anymore, so there is no histogram for
// readers blocking behind a writer — snapshot reads take only a shard
// mutex and (rarely) versionMu, both of which bound waits at
// microseconds.
var (
	writerLockWait  = obs.Default.Histogram("kvstore_writer_lock_wait_seconds", obs.WaitBuckets)
	publishLockWait = obs.Default.Histogram("kvstore_publish_lock_wait_seconds", obs.WaitBuckets)
	versionLockWait = obs.Default.Histogram("kvstore_version_lock_wait_seconds", obs.WaitBuckets)
	shardLockWait   = obs.Default.Histogram("kvstore_shard_lock_wait_seconds", obs.WaitBuckets)
	walFsyncTime    = obs.Default.Histogram("kvstore_wal_fsync_seconds", obs.WaitBuckets)
	fileFsyncTime   = obs.Default.Histogram("kvstore_fsync_seconds", obs.WaitBuckets)
	// groupCommitSize records, per group commit, how many Sync callers
	// shared the flush. A p50 above 1 under concurrent committers is the
	// direct evidence that WAL fsyncs are being amortized.
	groupCommitSize = obs.Default.Histogram("kvstore_group_commit_size", obs.GroupSizeBuckets)
)

// lockTimed acquires mu, observing the wait only when contended.
func lockTimed(mu *sync.Mutex, h *obs.Histogram) {
	if mu.TryLock() {
		return
	}
	start := time.Now()
	mu.Lock()
	h.Observe(time.Since(start).Seconds())
}

// fsyncTimed syncs f and always observes the latency: every fsync costs
// a device round-trip, so there is no uncontended fast path to skip.
func fsyncTimed(f File, h *obs.Histogram) error {
	start := time.Now()
	err := f.Sync()
	h.Observe(time.Since(start).Seconds())
	return err
}
