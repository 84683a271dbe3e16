package kvstore

import (
	"errors"
	"fmt"
	"sync"
)

// Replication: committed flush batches as a subscription feed.
//
// The group-commit flush already captures a consistent cut of the
// committed state under publishMu (see groupcommit.go). Replication
// rides that cut: while any subscriber is registered, every commit
// records the page ids it rewrote in a replication dirty set, and each
// flush packages the current committed images of those pages — plus the
// (root, epoch, page count) triple of the cut — into a CommitBatch
// numbered by a monotone LSN. Subscribers receive batches strictly in
// LSN order through an unbounded per-subscriber queue, so a slow
// follower never stalls the leader's commit path.
//
// A new subscription starts with a bootstrap batch: the full page image
// of the store at the subscription instant, captured under the same
// publishMu that orders it against in-flight flush cuts. Applying the
// bootstrap and then every subsequent batch in order reproduces the
// leader's committed state at each cut — page images are whole-page and
// idempotent, so a batch that overlaps the bootstrap (pages dirtied
// before the subscription but flushed after) rewrites identical or
// newer bytes, never older ones.
//
// The replication dirty set is tracked independently of the pager's
// flush dirty flags on purpose: a memory-backed leader copies an evicted
// dirty page into its page slice (and clears its flag) outside any
// commit, which would silently drop it from a dirty-flag-derived batch.
// The replication set is only cleared when a batch carrying those pages
// has been handed to every subscriber.

// CommitPage is one replicated page image. Data aliases the leader's
// immutable pool buffer — receivers must copy before mutating (DB.
// ApplyCommitBatch does).
type CommitPage struct {
	ID   uint32
	Data []byte
}

// CommitBatch is one committed consistent cut of a store: the pages that
// changed since the previous batch (or, for a bootstrap, every page),
// plus the committed root, epoch, and page count of the cut. LSN numbers
// batches per leader store, starting at 0 for the bootstrap state.
type CommitBatch struct {
	// LSN is the batch's commit sequence number: 1 + the number of
	// replicated flush cuts before it. A subscription's bootstrap batch
	// carries the LSN of the last cut it already covers.
	LSN uint64
	// Epoch, Root, and Npages are the committed MVCC state of the cut;
	// the follower publishes them after adding its rebase offset (see
	// ApplyCommitBatch), preserving the leader's commit order.
	Epoch  uint64
	Root   uint32
	Npages uint32
	Pages  []CommitPage
}

// CommitSub is one subscriber's ordered feed of commit batches. Next
// blocks until a batch is available (or the subscription is closed);
// batches arrive in strictly ascending LSN order, bootstrap first.
type CommitSub struct {
	db     *DB
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []CommitBatch
	closed bool
}

func newCommitSub(db *DB) *CommitSub {
	s := &CommitSub{db: db}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push enqueues a batch. Emission call sites hold the leader's publishMu
// (subscription bootstrap, flush collect), which is what serializes the
// LSN order across the fleet of subscribers.
func (s *CommitSub) push(b CommitBatch) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, b)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// Next returns the next batch in LSN order, blocking until one arrives.
// The second result is false once the subscription is closed and the
// queue is drained — followers should exit their apply loop then.
func (s *CommitSub) Next() (CommitBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return CommitBatch{}, false
	}
	b := s.queue[0]
	s.queue = s.queue[1:]
	return b, true
}

// Pending reports the batches queued but not yet taken by Next — the
// subscriber's apply backlog.
func (s *CommitSub) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Close detaches the subscription from the leader (no further batches
// accumulate on its behalf) and wakes a blocked Next. Idempotent.
func (s *CommitSub) Close() {
	db := s.db
	if db != nil {
		lockTimed(&db.publishMu, publishLockWait)
		for i, sub := range db.repSubs {
			if sub == s {
				db.repSubs = append(db.repSubs[:i], db.repSubs[i+1:]...)
				break
			}
		}
		if len(db.repSubs) == 0 {
			clear(db.repDirty)
		}
		db.publishMu.Unlock()
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SubscribeCommits registers a replication subscriber and returns its
// feed. The first batch is a bootstrap: the complete committed page
// image at the subscription instant. Every later flush of the store
// delivers one incremental batch. The subscription must be Closed when
// the follower detaches; DB.Close closes every remaining subscription.
func (db *DB) SubscribeCommits() (*CommitSub, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	sub := newCommitSub(db)
	lockTimed(&db.publishMu, publishLockWait)
	npages := db.pager.npages.Load()
	boot := CommitBatch{
		LSN:    db.commitLSN.Load(),
		Epoch:  db.epoch,
		Root:   db.root,
		Npages: npages,
		Pages:  make([]CommitPage, 0, npages),
	}
	for id := uint32(0); id < npages; id++ {
		buf, err := db.pager.read(id)
		if err != nil {
			db.publishMu.Unlock()
			return nil, fmt.Errorf("kvstore: bootstrap page %d: %w", id, err)
		}
		boot.Pages = append(boot.Pages, CommitPage{ID: id, Data: buf})
	}
	db.repSubs = append(db.repSubs, sub)
	// Push under publishMu: a concurrent flush cut orders strictly after
	// the bootstrap in every subscriber queue.
	sub.push(boot)
	db.publishMu.Unlock()
	return sub, nil
}

// CommitLSN returns the sequence number of the last replicated flush
// cut. A reader that wants read-your-writes against a follower compares
// this — captured after its writes synced — with the follower's last
// applied LSN.
func (db *DB) CommitLSN() uint64 { return db.commitLSN.Load() }

// collectReplication packages the replication dirty set into a batch for
// the registered subscribers and resets the set. Called by flushBatch
// under publishMu — the same lock that publishes commits — so the batch
// is exactly the flush's consistent cut. Returns the subscribers to
// deliver to (captured now: a subscriber registered after this cut
// bootstraps from a state that already covers it) or nil when there is
// nothing to replicate.
func (db *DB) collectReplication() (*CommitBatch, []*CommitSub, error) {
	if len(db.repSubs) == 0 || len(db.repDirty) == 0 {
		return nil, nil, nil
	}
	b := &CommitBatch{
		LSN:    db.commitLSN.Add(1),
		Epoch:  db.epoch,
		Root:   db.root,
		Npages: db.pager.npages.Load(),
		Pages:  make([]CommitPage, 0, len(db.repDirty)),
	}
	for id := range db.repDirty {
		buf, err := db.pager.read(id)
		if err != nil {
			return nil, nil, fmt.Errorf("kvstore: replicate page %d: %w", id, err)
		}
		b.Pages = append(b.Pages, CommitPage{ID: id, Data: buf})
	}
	clear(db.repDirty)
	subs := append([]*CommitSub(nil), db.repSubs...)
	return b, subs, nil
}

// ErrClosed reports an operation against a DB after Close.
var ErrClosed = errors.New("kvstore: database is closed")

// ErrBatchOrder reports a replicated batch applied out of order (the
// follower's committed epoch is already at or past the batch's).
var ErrBatchOrder = errors.New("kvstore: commit batch out of order")

// ApplyCommitBatch installs a replicated batch as this store's next
// committed state: page images install copy-on-write into the pool,
// superseded images are retained for open snapshots, and the batch's
// (root, epoch, page count) publish atomically — full MVCC snapshot
// semantics for follower reads. Batches must apply in the order
// received; a batch whose epoch falls behind the follower's committed
// state fails ErrBatchOrder (equality is allowed — an overlap batch
// rewrites identical bytes).
//
// Follower epochs are the leader's plus a fixed rebase offset, pinned
// at the first applied batch: a follower may already have local commits
// (its own initialization), and a reopened file-backed leader restarts
// its epoch counter, so raw leader epochs can sit at or below the
// follower's. The offset lifts the feed strictly past the follower's
// own history while preserving the leader's ordering.
func (db *DB) ApplyCommitBatch(b CommitBatch) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.writerMu.Lock()
	defer db.writerMu.Unlock()
	lockTimed(&db.publishMu, publishLockWait)
	if !db.repShifted {
		if b.Epoch <= db.epoch {
			db.epochShift = db.epoch + 1 - b.Epoch
		}
		db.repShifted = true
	}
	epoch := b.Epoch + db.epochShift
	if epoch < db.epoch {
		db.publishMu.Unlock()
		return fmt.Errorf("%w: batch epoch %d behind committed %d", ErrBatchOrder, epoch, db.epoch)
	}
	oldNpages := db.pager.npages.Load()
	if len(db.pins) > 0 {
		for _, pg := range b.Pages {
			if pg.ID >= oldNpages {
				continue // fresh page: no prior image to retain
			}
			img, err := db.pager.read(pg.ID)
			if err != nil {
				db.publishMu.Unlock()
				return err
			}
			db.retain(pg.ID, img, epoch)
		}
	}
	if b.Npages > oldNpages {
		db.pager.setNpages(b.Npages)
	}
	for _, pg := range b.Pages {
		buf := make([]byte, PageSize)
		copy(buf, pg.Data)
		db.pager.install(pg.ID, buf, epoch)
	}
	db.root = b.Root
	db.epoch = epoch
	db.pager.epoch.Store(epoch)
	db.publishMu.Unlock()
	// The header cache may describe the pre-apply tree.
	db.hdrValid = false
	db.appliedLSN.Store(b.LSN)
	return nil
}

// AppliedLSN returns the LSN of the last batch this store applied as a
// replication follower (zero for a store that never applied one).
func (db *DB) AppliedLSN() uint64 { return db.appliedLSN.Load() }

// closeSubs closes every remaining subscription so follower apply loops
// observe the shutdown. Called by DB.Close.
func (db *DB) closeSubs() {
	lockTimed(&db.publishMu, publishLockWait)
	subs := append([]*CommitSub(nil), db.repSubs...)
	db.repSubs = nil
	clear(db.repDirty)
	db.publishMu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
