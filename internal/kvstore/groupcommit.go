package kvstore

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Group commit: concurrent Sync callers share one flush.
//
// Sync no longer owns the tree lock (there is none to own) — it joins
// the pending commit ticket. The first joiner to find no flush in
// progress becomes the leader: it detaches the ticket, collects the
// dirty set, and runs the full commit protocol (fresh pages in place +
// data-file fsync, WAL append + one fsync, in-place writes, data-file
// fsync, WAL reset; see wal.go) once for every member.
// Callers that arrive while a flush is running accumulate on the next
// ticket and park; when the running flush finishes it wakes everyone —
// members of the finished ticket return its result, and one member of
// the next ticket finds the leader seat empty and takes it. A solo Sync
// degenerates to exactly the pre-group-commit write sequence, which is
// what keeps the PR-4 crash-point sweeps byte-identical.
//
// Durability contract per member: a member's own commits were published
// (publishMu) before its Sync call joined the ticket, and the leader
// detaches the ticket before collecting the dirty set under that same
// publishMu — so the batch always covers every member's pages.

// commitTicket is one pending flush group. joined is closed when a
// second member joins, releasing a leader waiting out the group-commit
// window early.
type commitTicket struct {
	members int
	joined  chan struct{}
	done    bool
	err     error
}

// groupCommit is the DB's commit-ticket state, guarded by mu. wake is
// closed (and replaced) each time a flush completes — a broadcast that
// lets parked members re-check their ticket.
type groupCommit struct {
	mu       sync.Mutex
	wake     chan struct{}
	flushing bool
	cur      *commitTicket
}

// flushPage is one dirty page captured for a flush batch: the id, the
// buffer as of the collect (immutable), and the cache entry so the
// leader can clear the dirty flag afterwards — but only when the buffer
// is still the one it wrote (a commit that lands mid-flush leaves its
// page dirty for the next batch).
type flushPage struct {
	id  uint32
	buf []byte
	c   *cached
}

// Sync makes every committed page durable. Concurrent callers batch into
// one group commit: a single WAL fsync covers all of them. The error of
// the shared flush is delivered to every member.
func (db *DB) Sync() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.sync()
}

// sync is Sync without the closed check — Close uses it for the final
// flush after new Syncs are already being refused.
func (db *DB) sync() error {
	p := db.pager
	p.syncCalls.Add(1)
	g := &db.gc
	g.mu.Lock()
	if g.cur == nil {
		g.cur = &commitTicket{joined: make(chan struct{})}
	}
	t := g.cur
	if t.members++; t.members == 2 {
		close(t.joined)
	}
	for g.flushing {
		wake := g.wake
		g.mu.Unlock()
		<-wake
		g.mu.Lock()
		if t.done {
			err := t.err
			g.mu.Unlock()
			return err
		}
	}
	// Leader: take the flush slot. With a group-commit window configured
	// (Options.GroupCommitWait) and no follower yet, hold the ticket open
	// until one joins or the window closes — on fast devices the flush
	// itself is too quick for concurrent committers to pile up on their
	// own, so the window is what lets sparse Syncs share an fsync. The
	// wait ends the moment a follower arrives, so it prices at most one
	// window per flush and nothing when committers are already queued.
	g.flushing = true
	if db.gcWait > 0 && t.members == 1 {
		g.mu.Unlock()
		select {
		case <-t.joined:
		case <-time.After(db.gcWait):
		}
		g.mu.Lock()
	}
	// Detach the ticket so later arrivals start the next group.
	g.cur = nil
	g.mu.Unlock()

	err := db.flushBatch()
	p.groupCommits.Add(1)
	groupCommitSize.Observe(float64(t.members))

	g.mu.Lock()
	t.done, t.err = true, err
	g.flushing = false
	close(g.wake)
	g.wake = make(chan struct{})
	g.mu.Unlock()
	return err
}

// flushBatch runs one commit protocol over the current dirty set. The
// collect runs under publishMu, so the batch is a consistent cut of
// committed transactions — each one entirely in or entirely out — and
// the page count it records matches. A crash anywhere inside replays to
// exactly this cut or the previous one, never half of it.
func (db *DB) flushBatch() error {
	p := db.pager
	lockTimed(&db.publishMu, publishLockWait)
	var batch []flushPage
	for i := range p.shards {
		s := &p.shards[i]
		lockTimed(&s.mu, shardLockWait)
		for _, c := range s.cache {
			if c.dirty {
				batch = append(batch, flushPage{id: c.id, buf: c.buf, c: c})
			}
		}
		s.mu.Unlock()
	}
	npages := p.npages.Load()
	db.publishMu.Unlock()
	sort.Slice(batch, func(i, j int) bool { return batch[i].id < batch[j].id })

	if p.file == nil {
		for _, fp := range batch {
			s := p.shardOf(fp.id)
			lockTimed(&s.mu, shardLockWait)
			if c, ok := s.cache[fp.id]; ok && c.dirty {
				p.flushLocked(c)
			}
			s.mu.Unlock()
		}
		return nil
	}

	// Pages the batch allocated past the durable page count never held
	// committed data, so a torn write of one cannot damage the store:
	// they go in place first, and only the rest go through the log (see
	// wal.go). A store with no durable header yet logs every page.
	logged, fresh := batch, batch[len(batch):]
	if d := p.durable; d > 0 {
		i := sort.Search(len(batch), func(i int) bool { return batch[i].id >= d })
		logged, fresh = batch[:i], batch[i:]
	}
	if len(fresh) > 0 {
		if err := p.writeRuns(fresh); err != nil {
			return err
		}
		if err := fsyncTimed(p.file, fileFsyncTime); err != nil {
			return err
		}
	}
	// From here on the batch may become durable: a later flush must log
	// every page below its count.
	p.durable = npages
	if len(logged) > 0 {
		if err := p.walCommit(logged, npages); err != nil {
			return err
		}
		for _, fp := range logged {
			start := time.Now()
			_, err := p.file.WriteAt(fp.buf, int64(fp.id)*PageSize)
			p.ioNanos.Add(int64(time.Since(start)))
			if err != nil {
				return fmt.Errorf("kvstore: sync page %d: %w", fp.id, err)
			}
			p.writes.Add(1)
			p.written(fp)
		}
	}
	if err := fsyncTimed(p.file, fileFsyncTime); err != nil {
		return err
	}
	if len(logged) > 0 {
		if err := p.walReset(); err != nil {
			return err
		}
	}
	// The commit unpinned its pages: bring every shard back to capacity.
	for i := range p.shards {
		s := &p.shards[i]
		lockTimed(&s.mu, shardLockWait)
		p.trimLocked(s)
		s.mu.Unlock()
	}
	return nil
}

// freshRun bounds the pages one in-place write of fresh pages carries,
// and with it the buffer the pager keeps for them (256 KB).
const freshRun = 64

// writeRuns writes fresh pages (sorted by id) in place, one WriteAt per
// run of consecutive ids of up to freshRun pages, copied into one buffer
// the pager keeps (flushes are serialized).
func (p *pager) writeRuns(pages []flushPage) error {
	if p.runBuf == nil {
		p.runBuf = make([]byte, freshRun*PageSize)
	}
	for len(pages) > 0 {
		n := 1
		for n < len(pages) && n < freshRun && pages[n].id == pages[0].id+uint32(n) {
			n++
		}
		buf := p.runBuf[:n*PageSize]
		for i, fp := range pages[:n] {
			copy(buf[i*PageSize:], fp.buf)
		}
		start := time.Now()
		_, err := p.file.WriteAt(buf, int64(pages[0].id)*PageSize)
		p.ioNanos.Add(int64(time.Since(start)))
		if err != nil {
			return fmt.Errorf("kvstore: write pages %d-%d: %w", pages[0].id, pages[n-1].id, err)
		}
		p.writes.Add(int64(n))
		for _, fp := range pages[:n] {
			p.written(fp)
		}
		pages = pages[n:]
	}
	return nil
}

// written clears a flushed page's dirty flag, but only while its entry
// still holds the buffer that was written: a commit that superseded it
// mid-flush must stay dirty for the next batch (its image is in neither
// the log nor the file yet).
func (p *pager) written(fp flushPage) {
	s := p.shardOf(fp.id)
	lockTimed(&s.mu, shardLockWait)
	if &fp.c.buf[0] == &fp.buf[0] {
		fp.c.dirty = false
	}
	s.mu.Unlock()
}
