package kvstore

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// MVCC snapshot reads over copy-on-write pages.
//
// Every committed state of the tree is numbered by an epoch. A writer
// transaction (one Apply of a Batch) mutates decoded shadow
// copies of the pages it touches in a private write set; commit
// serializes each once and publishes them all at once — new root, new
// page count, epoch+1 — under the DB's publishMu. Readers never take the
// tree-wide lock the pre-MVCC design used: a Snapshot is just the
// committed (root, epoch) pair plus a pin registered in DB.pins, and
// every page it reads resolves against that epoch.
//
// Resolution uses two facts. First, pool buffers are immutable and
// epoch-stamped (pager.install replaces pointers, never bytes), so a
// page whose stamp is <= the snapshot's epoch is exactly the image the
// snapshot must see. Second, whenever a commit supersedes a page while
// any snapshot is open, it first copies the committed image into the
// retained-version table keyed by the epoch that superseded it — so a
// page whose pool stamp is newer than the snapshot finds its older image
// by looking up the smallest supersededAt greater than its epoch.
// Because commits are serialized and always retain before installing,
// a snapshot read that observes a newer stamp is guaranteed to find its
// version retained (a conservatively newer stamp from a disk fetch just
// misses the lookup and correctly falls back to the fetched image).
//
// Retired pages: closing the last snapshot pinning an epoch raises the
// pruning threshold (the smallest pinned epoch, or the committed epoch
// when no pins remain) and drops every retained version superseded at or
// before it — those images can never be needed again, since any future
// snapshot opens at a later epoch.
//
// Lock order (supersedes the PR-3 two-level order): writerMu -> publishMu
// -> { shard mutex | versionMu | memMu }; the three innermost are never
// nested within each other, except that the memory backend copies a page
// under its shard mutex (shard mutex -> memMu). Snapshot reads take a shard mutex
// and, after releasing it, possibly versionMu — never publishMu.

// pageVersion is one superseded committed page image. supersededAt is
// the first epoch at which the image stopped being current: a snapshot
// at epoch e needs the version with the smallest supersededAt > e.
type pageVersion struct {
	supersededAt uint64
	buf          []byte
}

// Snapshot is an immutable view of the store at one committed epoch.
// Opening one is cheap — copying the committed root and epoch and
// bumping a pin count — and reads through it never block writers, nor
// are blocked by them. A Snapshot must be Closed (idempotently) so the
// page images it pins can be retired; it is safe for concurrent use by
// multiple goroutines, except for Close racing reads.
type Snapshot struct {
	db     *DB
	root   uint32
	epoch  uint64
	closed atomic.Bool
	// peek reads pages without filling the pool (HasPrefix).
	peek bool
}

// OpenSnapshot pins the current committed state and returns a read-only
// view of it. Concurrent commits proceed normally; the snapshot keeps
// observing exactly the epoch it opened at.
func (db *DB) OpenSnapshot() *Snapshot {
	lockTimed(&db.publishMu, publishLockWait)
	s := &Snapshot{db: db, root: db.root, epoch: db.epoch}
	if len(db.pins) == 0 || s.epoch < db.minPin {
		db.minPin = s.epoch
	}
	db.pins[s.epoch]++
	db.publishMu.Unlock()
	db.snapshotsOpen.Add(1)
	return s
}

// Epoch returns the committed epoch this snapshot observes.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Close releases the snapshot's pin and retires any page versions no
// open snapshot can need anymore. Safe to call more than once.
func (s *Snapshot) Close() {
	if s.closed.Swap(true) {
		return
	}
	db := s.db
	db.snapshotsOpen.Add(-1)
	lockTimed(&db.publishMu, publishLockWait)
	if db.pins[s.epoch]--; db.pins[s.epoch] == 0 {
		delete(db.pins, s.epoch)
		if s.epoch == db.minPin && len(db.pins) > 0 {
			min := ^uint64(0)
			for e := range db.pins {
				if e < min {
					min = e
				}
			}
			db.minPin = min
		}
	}
	// Pruning threshold: with pins left, the smallest pinned epoch; with
	// none, the committed epoch. Either way, versions superseded at or
	// before it are unreachable — any later-opened snapshot pins an epoch
	// >= the threshold, and the versions it could need are superseded
	// strictly after it.
	threshold := db.epoch
	if len(db.pins) > 0 {
		threshold = db.minPin
	}
	db.publishMu.Unlock()
	db.pruneVersions(threshold)
}

// snapRead resolves page id as of epoch: the committed pool buffer when
// its stamp is old enough, the retained version otherwise. The returned
// buffer is immutable. With peek, a page the pool lacks is read without
// being installed.
func (db *DB) snapRead(id uint32, epoch uint64, peek bool) ([]byte, error) {
	var buf []byte
	var stamp uint64
	var err error
	if peek {
		buf, stamp, err = db.pager.peekStamped(id)
	} else {
		buf, stamp, err = db.pager.readStamped(id)
	}
	if err != nil {
		return nil, err
	}
	if stamp > epoch && db.retainedCount.Load() > 0 {
		if old := db.lookupVersion(id, epoch); old != nil {
			return old, nil
		}
	}
	return buf, nil
}

// readPage returns the raw immutable page image as of the snapshot's
// epoch; every read path reads it in place (pageView on a seek, the
// forward walk on a crossing).
func (s *Snapshot) readPage(id uint32) ([]byte, error) {
	return s.db.snapRead(id, s.epoch, s.peek)
}

// retain parks a superseded committed image for the snapshots that still
// need it. Called by commitWrite (under publishMu) before the new image
// is installed; commits are serialized, so versions of one page arrive
// in ascending supersededAt order.
func (db *DB) retain(id uint32, buf []byte, supersededAt uint64) {
	lockTimed(&db.versionMu, versionLockWait)
	db.retained[id] = append(db.retained[id], pageVersion{supersededAt: supersededAt, buf: buf})
	db.versionMu.Unlock()
	db.retainedCount.Add(1)
}

// lookupVersion finds the image of page id that was current at epoch:
// the retained version with the smallest supersededAt > epoch, or nil
// when the committed pool image is still the right one.
func (db *DB) lookupVersion(id uint32, epoch uint64) []byte {
	lockTimed(&db.versionMu, versionLockWait)
	defer db.versionMu.Unlock()
	for _, v := range db.retained[id] { // ascending supersededAt
		if v.supersededAt > epoch {
			return v.buf
		}
	}
	return nil
}

// pruneVersions retires every retained version with supersededAt <=
// threshold. The threshold was computed under publishMu; racing commits
// only add versions above it and racing closes only raise it, so a
// stale threshold is merely conservative.
func (db *DB) pruneVersions(threshold uint64) {
	if db.retainedCount.Load() == 0 {
		return
	}
	lockTimed(&db.versionMu, versionLockWait)
	var dropped int64
	for id, vs := range db.retained {
		i := 0
		for i < len(vs) && vs[i].supersededAt <= threshold {
			i++
		}
		if i == 0 {
			continue
		}
		dropped += int64(i)
		if i == len(vs) {
			delete(db.retained, id)
		} else {
			db.retained[id] = append([]pageVersion(nil), vs[i:]...)
		}
	}
	db.versionMu.Unlock()
	if dropped > 0 {
		db.retainedCount.Add(-dropped)
		db.retiredPages.Add(dropped)
	}
}

// writeTxn is the shadow state of the in-flight writer transaction
// (guarded by writerMu): the nodes it has rewritten, the header image
// when it rewrote that, its private page count, and its root. Nothing in
// it is visible to readers until commitWrite publishes the whole set.
//
// The shadow set holds decoded nodes, not page images: a page is decoded
// on its first touch in the transaction (readNodeW), every later read
// and write of it in the same transaction works on that one *node, and
// commitWrite serializes each dirty node exactly once. A sorted batch
// therefore costs one decode and one serialization per leaf it fills,
// not one of each per key. Because a shadow node lives on and is
// mutated after it is recorded, no two nodes in the set may share a
// backing array they can append into — see finishInsert's capped split
// halves.
//
// The leaf cursor is the sorted-insert shortcut: the leaf the
// transaction's last descent reached, plus the separator bounds
// [low, high) routing to it (nil = unbounded). A key still in that range
// skips the root-to-leaf descent. Deletes never move separators, so only
// a split invalidates it, and it starts empty with every transaction.
type writeTxn struct {
	set    map[uint32]*node
	hdr    []byte // header page image, nil unless this transaction rewrote it
	npages uint32
	root   uint32

	leafOK    bool
	leaf      uint32
	low, high []byte
}

// beginWrite opens a transaction over the committed state. Caller holds
// writerMu.
func (db *DB) beginWrite() {
	if db.w.set == nil {
		db.w.set = make(map[uint32]*node, 8)
	} else {
		clear(db.w.set)
	}
	db.w.hdr = nil
	db.w.npages = db.pager.npages.Load()
	db.w.root = db.root
	db.w.leafOK, db.w.low, db.w.high = false, nil, nil
}

// abortWrite discards the transaction's shadow pages, leaving the
// committed state untouched (a failed mutation is now atomic, where the
// pre-MVCC tree could be left half-written). The header cache may
// describe discarded work, so it resets.
func (db *DB) abortWrite() {
	clear(db.w.set)
	db.w.hdr = nil
	db.hdrValid = false
}

// dirtyPage is one serialized page image of a committing transaction.
type dirtyPage struct {
	id  uint32
	buf []byte
}

// commitWrite atomically publishes the transaction. Every dirty node is
// serialized first, once, outside publishMu (writeNodeW already refused
// any that overflow, so a failure here is a corrupt node and publishes
// nothing). Then, under publishMu: retained images (so a concurrent
// snapshot that observes a new stamp always finds its version), the
// shadow pages, the page count, and finally the new root and epoch. An
// empty write set (e.g. deleting an absent key) publishes nothing and
// keeps the epoch.
func (db *DB) commitWrite() error {
	if len(db.w.set) == 0 && db.w.hdr == nil {
		return nil
	}
	pages := make([]dirtyPage, 0, len(db.w.set)+1)
	if db.w.hdr != nil {
		pages = append(pages, dirtyPage{id: 0, buf: db.w.hdr})
	}
	for id, n := range db.w.set {
		buf, err := n.serialize()
		if err != nil {
			return err
		}
		pages = append(pages, dirtyPage{id: id, buf: buf})
	}
	// Install in page order, not map order: a commit larger than the pool
	// then evicts its oldest pages, not a random half the next one re-dirties.
	sort.Slice(pages, func(a, b int) bool { return pages[a].id < pages[b].id })
	newEpoch := db.epoch + 1
	oldNpages := db.pager.npages.Load()
	lockTimed(&db.publishMu, publishLockWait)
	if len(db.pins) > 0 {
		for _, pg := range pages {
			if pg.id >= oldNpages {
				continue // freshly allocated: no prior image to retain
			}
			img, err := db.pager.read(pg.id)
			if err != nil {
				db.publishMu.Unlock()
				return err
			}
			db.retain(pg.id, img, newEpoch)
		}
	}
	// Grow the page count before installing: installing a fresh page can
	// evict another fresh page of this same commit, and the memory
	// backend's eviction flush needs the backing slice grown already.
	db.pager.setNpages(db.w.npages)
	for _, pg := range pages {
		db.pager.install(pg.id, pg.buf, newEpoch) // buffers now belong to the pool
	}
	db.root = db.w.root
	db.epoch = newEpoch
	db.pager.epoch.Store(newEpoch)
	db.publishMu.Unlock()
	clear(db.w.set)
	db.w.hdr = nil
	return nil
}

// readNodeW reads a page through the transaction. A page already in the
// shadow set comes back as the shadow node itself — callers mutate it in
// place and record it with writeNodeW. Otherwise the committed image is
// decoded into a fresh node the caller owns. Caller holds writerMu.
func (db *DB) readNodeW(id uint32) (*node, error) {
	if n, ok := db.w.set[id]; ok {
		return n, nil
	}
	return db.readNode(id)
}

// writeNodeW records a node in the transaction's shadow set. It refuses
// a node that would overflow its page here, at the write that caused it;
// serialization itself waits for commitWrite.
func (db *DB) writeNodeW(id uint32, n *node) error {
	if sz := n.size(); sz > PageSize {
		return fmt.Errorf("kvstore: node overflows page (%d bytes)", sz)
	}
	db.w.set[id] = n
	return nil
}

// walloc allocates a page id private to the transaction; the pool learns
// about it when commitWrite publishes the new page count.
func (db *DB) walloc() uint32 {
	id := db.w.npages
	db.w.npages++
	return id
}
