// Package kvstore is a single-file, page-oriented B+tree key-value store —
// the storage substrate standing in for BerkeleyDB Java Edition in the
// paper's architecture (Section VIII). It provides ordered iteration
// (needed for the TypeToSequence scans of the renderer), a sharded buffer
// pool with per-shard LRU eviction, MVCC snapshot reads over
// copy-on-write page versions (see mvcc.go), a group-committing
// write-ahead log that makes Sync a crash-atomic commit shared between
// concurrent callers (see wal.go and groupcommit.go), and block
// read/write counters that the benchmark harness samples to regenerate
// the paper's vmstat figures (Figs. 11-12).
//
// A scan reads each leaf when it crosses into it, through the pool, and
// nothing ahead of it: a query keeps one cursor per type open at once,
// and a leaf fetched ahead of its cursor is often evicted from a small
// pool before the cursor reaches it. Leaves still carry sibling
// pointers, as part of the page format.
package kvstore

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the fixed on-disk page size.
const PageSize = 4096

const magic = "XMKV2\x00\x00\x00"

// numShards is the buffer-pool shard count (a power of two). Pages hash
// to shards by id, so sequentially allocated sibling leaves — what a
// range scan walks — land on different shards and concurrent readers of
// different pages never serialize on one mutex. 16 shards keep per-shard
// LRU lists long enough to approximate a global LRU at the default pool
// sizes while covering any realistic reader parallelism.
const numShards = 16

// evictScan bounds how far past a dirty LRU tail a file-backed eviction
// looks for a clean victim before giving up and letting the shard run
// over capacity (dirty pages are pinned between commits; see
// insertLocked).
const evictScan = 8

// Stats holds cumulative I/O counters. Reads and writes are whole pages
// ("blocks" in the vmstat sense). IONanos accumulates wall time spent
// inside file reads and writes; the benchmark harness derives the paper's
// wait-percentage figure (Fig. 12) from it. The buffer-pool counters
// (CacheHits/CacheMisses/Evictions) and the operation counters
// (Gets/Puts/Deletes/Seeks) feed the observability layer's per-span
// page-I/O accounting. Every counter is maintained with atomics, so a
// snapshot never takes a pool or tree lock.
type Stats struct {
	BlocksRead    int64
	BlocksWritten int64
	IONanos       int64
	// CacheHits/CacheMisses count page lookups served from / missing the
	// buffer pool; Evictions counts pages pushed out by LRU pressure.
	CacheHits   int64
	CacheMisses int64
	Evictions   int64
	// ReadAheads is always 0: scans no longer prefetch.
	//
	// Deprecated: kept only while the benchmark module's trace reads
	// it.
	ReadAheads int64
	// WALBytes counts bytes appended to the write-ahead log (file-backed
	// stores only): the images of pages that overwrite durable ones, and
	// the records around them. A page a commit allocates is written in
	// place only, so it counts in BlocksWritten and not here. WALCommits
	// counts flush batches that completed the log-then-in-place commit
	// protocol, i.e. that logged at least one page. Recoveries is 1 when
	// Open found a complete log from an interrupted commit and replayed
	// it, else 0.
	WALBytes   int64
	WALCommits int64
	Recoveries int64
	// Gets/Puts/Deletes/Seeks count B+tree operations (a Seek starts one
	// ordered scan; each scan re-reads pages through the pool).
	Gets    int64
	Puts    int64
	Deletes int64
	Seeks   int64
	// FastPathHits counts the puts a transaction's leaf cursor served
	// (no root-to-leaf descent), a subset of Puts.
	FastPathHits int64
	// MVCC counters: SnapshotsOpen is the number of snapshots currently
	// pinning an epoch; Epoch is the last committed epoch; PagesRetained
	// is the number of superseded page images currently held for open
	// snapshots; PagesRetired counts superseded images released after
	// their last pinning snapshot closed.
	SnapshotsOpen int64
	Epoch         int64
	PagesRetained int64
	PagesRetired  int64
	// Group-commit counters: SyncCalls counts Sync invocations,
	// GroupCommits counts leader-run flush batches (SyncCalls divided by
	// GroupCommits is the mean group size), and WALFsyncs counts
	// commit-record fsyncs — the durability-critical device round-trip.
	// Under concurrent committers WALFsyncs stays below SyncCalls: one
	// leader fsync covers the whole group.
	SyncCalls    int64
	GroupCommits int64
	WALFsyncs    int64
}

// HitRatio is the buffer-pool hit ratio over page lookups, in [0, 1];
// zero when no lookups happened yet.
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// shard is one slice of the buffer pool: its own page map, LRU list, and
// capacity, guarded by its own mutex. The pad keeps hot shard headers on
// separate cache lines.
type shard struct {
	mu         sync.Mutex
	cache      map[uint32]*cached
	head, tail *cached // LRU list, most recent at head
	capacity   int
	_          [24]byte
}

// pager manages the page file and the sharded buffer pool.
//
// Locking: each page id maps to exactly one shard and every access to a
// page's cache entry happens under that shard's mutex; at most one shard
// mutex is ever held at a time by readers, so shard locks cannot
// deadlock. npages and all counters are atomics.
//
// Page buffers are immutable: install replaces a cache entry's buf
// pointer with a freshly serialized image and never copies into a live
// buffer, so a snapshot reader that obtained the old slice keeps a
// consistent pre-commit image without holding any lock. Each entry is
// stamped with the epoch of the commit that installed it (disk fetches
// stamp the current committed epoch, a conservative upper bound); the
// snapshot read path compares that stamp against its own epoch to decide
// whether to consult the retained-version table (mvcc.go).
//
// The mem slice of the memory backend is guarded by memMu (it is
// appended to at commit publish and indexed by concurrent lock-free
// readers). File growth is logical only — npages is stored at commit
// publish under the DB's publishMu, so a write-ahead-log commit record
// always names a page count consistent with the batch it covers.
type pager struct {
	file   File // nil for the memory backend
	memMu  sync.Mutex
	mem    [][]byte // memory backend pages, guarded by memMu
	npages atomic.Uint32
	epoch  atomic.Uint64 // last committed epoch (mirror of DB.epoch)
	shards [numShards]shard

	// Commit-protocol state: fs opens the write-ahead log lazily at
	// walPath (the full <path>.wal name); walRec is the buffer walCommit
	// encodes each page record into and runBuf the one writeRuns gathers
	// fresh pages in (flushes are serialized). durable is the page count
	// of the last commit that may be durable, 0 while the file has no
	// durable header: pages at or past it skip the log.
	fs      VFS
	walPath string
	wal     File
	walRec  []byte
	runBuf  []byte
	durable uint32

	reads        atomic.Int64
	writes       atomic.Int64
	ioNanos      atomic.Int64
	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	walBytes     atomic.Int64
	walCommits   atomic.Int64
	recoveries   atomic.Int64
	syncCalls    atomic.Int64
	groupCommits atomic.Int64
	walFsyncs    atomic.Int64
}

// cached is one buffer-pool entry. buf is immutable once installed —
// commits swap the pointer, never the bytes — and epoch records which
// commit installed it (or the committed epoch at fetch time, an upper
// bound, for pages loaded from the backing store).
type cached struct {
	id         uint32
	buf        []byte
	epoch      uint64
	dirty      bool
	prev, next *cached
}

func newPager(f File, capacity int) (*pager, error) {
	if capacity < 8 {
		capacity = 8
	}
	p := &pager{file: f}
	perShard := (capacity + numShards - 1) / numShards
	if perShard < 1 {
		perShard = 1
	}
	for i := range p.shards {
		p.shards[i].cache = map[uint32]*cached{}
		p.shards[i].capacity = perShard
	}
	if f != nil {
		size, err := f.Size()
		if err != nil {
			return nil, err
		}
		if size%PageSize != 0 {
			return nil, fmt.Errorf("kvstore: file size %d is not page aligned (truncated or corrupt)", size)
		}
		p.npages.Store(uint32(size / PageSize))
	}
	return p, nil
}

func (p *pager) shardOf(id uint32) *shard { return &p.shards[id&(numShards-1)] }

// setNpages publishes a committed page count, growing the memory
// backend's slice to cover it. Called under the DB's publishMu.
func (p *pager) setNpages(n uint32) {
	if p.file == nil {
		p.memMu.Lock()
		for uint32(len(p.mem)) < n {
			p.mem = append(p.mem, nil)
		}
		p.memMu.Unlock()
	}
	p.npages.Store(n)
}

// read returns the current committed page buffer. The buffer is
// immutable — callers may retain and decode it without any lock.
func (p *pager) read(id uint32) ([]byte, error) {
	buf, _, err := p.readStamped(id)
	return buf, err
}

// readStamped returns the current page buffer plus the epoch stamp of
// the commit that installed it. Pages fetched from the backing store are
// stamped with the committed epoch at fetch time — an upper bound on the
// image's true epoch, which at worst sends a snapshot reader on a
// harmless retained-version lookup that finds nothing.
func (p *pager) readStamped(id uint32) ([]byte, uint64, error) {
	s := p.shardOf(id)
	lockTimed(&s.mu, shardLockWait)
	defer s.mu.Unlock()
	if c, ok := s.cache[id]; ok {
		p.hits.Add(1)
		p.touchLocked(s, c)
		return c.buf, c.epoch, nil
	}
	p.misses.Add(1)
	c, err := p.fetchLocked(s, id)
	if err != nil {
		return nil, 0, err
	}
	return c.buf, c.epoch, nil
}

// peekStamped is readStamped without filling the pool: a page the pool
// does not hold is read into a private buffer that no one else sees.
func (p *pager) peekStamped(id uint32) ([]byte, uint64, error) {
	s := p.shardOf(id)
	lockTimed(&s.mu, shardLockWait)
	defer s.mu.Unlock()
	if c, ok := s.cache[id]; ok {
		p.hits.Add(1)
		return c.buf, c.epoch, nil
	}
	p.misses.Add(1)
	c, err := p.load(id)
	if err != nil {
		return nil, 0, err
	}
	return c.buf, c.epoch, nil
}

// fetchLocked loads a page absent from the pool from the backing store
// and inserts it. Callers hold s.mu and have counted the miss.
func (p *pager) fetchLocked(s *shard, id uint32) (*cached, error) {
	c, err := p.load(id)
	if err != nil {
		return nil, err
	}
	p.insertLocked(s, c)
	return c, nil
}

// load reads a page from the backing store into a fresh buffer. Callers
// hold the page's shard lock.
func (p *pager) load(id uint32) (*cached, error) {
	if id >= p.npages.Load() {
		return nil, fmt.Errorf("kvstore: page %d out of range (%d pages)", id, p.npages.Load())
	}
	buf := make([]byte, PageSize)
	if p.file != nil {
		start := time.Now()
		_, err := p.file.ReadAt(buf, int64(id)*PageSize)
		p.ioNanos.Add(int64(time.Since(start)))
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("kvstore: read page %d: %w", id, err)
		}
	} else {
		p.memMu.Lock()
		if p.mem[id] != nil {
			copy(buf, p.mem[id])
		}
		p.memMu.Unlock()
	}
	p.reads.Add(1)
	// Stamp after the backing read: the image on stable storage can be no
	// newer than the committed epoch observed afterwards.
	return &cached{id: id, buf: buf, epoch: p.epoch.Load()}, nil
}

// install publishes a committed page image into the pool, marking it
// dirty for the next flush. The entry's buffer pointer is replaced —
// never written through — so readers holding the previous buffer keep a
// consistent image; epoch stamps which commit produced it. Callers hold
// the DB's publishMu (commits and initialization), which also keeps the
// flush collector from observing half a transaction.
func (p *pager) install(id uint32, buf []byte, epoch uint64) {
	s := p.shardOf(id)
	lockTimed(&s.mu, shardLockWait)
	if c, ok := s.cache[id]; ok {
		c.buf = buf
		c.epoch = epoch
		c.dirty = true
		p.touchLocked(s, c)
		s.mu.Unlock()
		return
	}
	c := &cached{id: id, buf: buf, epoch: epoch, dirty: true}
	p.insertLocked(s, c)
	s.mu.Unlock()
}

// insertLocked adds a page at the shard's LRU head, evicting if over
// capacity. Callers hold s.mu.
//
// Eviction policy: a clean victim is simply dropped. In a file-backed
// store in-place writes are only legal inside a commit, so dirty pages
// are pinned: the scan skips up to evictScan dirty tail entries looking
// for a clean victim and otherwise lets the shard exceed capacity until
// the next Sync unpins everything and trims the shard (trimLocked). The
// memory backend has no commit to wait for: a dirty victim is copied
// into p.mem and dropped.
func (p *pager) insertLocked(s *shard, c *cached) {
	s.cache[c.id] = c
	c.next = s.head
	if s.head != nil {
		s.head.prev = c
	}
	s.head = c
	if s.tail == nil {
		s.tail = c
	}
	for len(s.cache) > s.capacity {
		victim := s.tail
		if p.file != nil {
			for scanned := 0; victim != nil && victim.dirty && scanned < evictScan; scanned++ {
				victim = victim.prev
			}
			if victim == nil || victim.dirty {
				return
			}
		} else if victim.dirty {
			p.flushLocked(victim)
		}
		p.evictLocked(s, victim)
	}
}

// trimLocked evicts clean pages from the shard's LRU tail until it is
// back at capacity, skipping the dirty pages of commits that landed
// after the flush batch was collected. Callers hold s.mu.
func (p *pager) trimLocked(s *shard) {
	for victim := s.tail; victim != nil && len(s.cache) > s.capacity; {
		prev := victim.prev
		if !victim.dirty {
			p.evictLocked(s, victim)
		}
		victim = prev
	}
}

func (p *pager) evictLocked(s *shard, c *cached) {
	s.unlink(c)
	delete(s.cache, c.id)
	p.evictions.Add(1)
}

func (p *pager) touchLocked(s *shard, c *cached) {
	if s.head == c {
		return
	}
	s.unlink(c)
	c.next = s.head
	c.prev = nil
	if s.head != nil {
		s.head.prev = c
	}
	s.head = c
	if s.tail == nil {
		s.tail = c
	}
}

func (s *shard) unlink(c *cached) {
	if c.prev != nil {
		c.prev.next = c.next
	} else if s.head == c {
		s.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else if s.tail == c {
		s.tail = c.prev
	}
	c.prev, c.next = nil, nil
}

// flushLocked stores one page's current buffer in the memory backend's
// page slice (the page stays cached and clean; the caller decides
// whether to evict). The buffer is immutable, so the backend keeps it
// rather than a copy; a miss copies it out again.
func (p *pager) flushLocked(c *cached) {
	p.memMu.Lock()
	p.mem[c.id] = c.buf
	p.memMu.Unlock()
	p.writes.Add(1)
	c.dirty = false
}

// close releases the file handles (the DB syncs first).
func (p *pager) close() error {
	var first error
	if p.wal != nil {
		first = p.wal.Close()
		p.wal = nil
	}
	if p.file != nil {
		if err := p.file.Close(); first == nil {
			first = err
		}
	}
	return first
}

func (p *pager) stats() Stats {
	return Stats{
		BlocksRead:    p.reads.Load(),
		BlocksWritten: p.writes.Load(),
		IONanos:       p.ioNanos.Load(),
		CacheHits:     p.hits.Load(),
		CacheMisses:   p.misses.Load(),
		Evictions:     p.evictions.Load(),
		WALBytes:      p.walBytes.Load(),
		WALCommits:    p.walCommits.Load(),
		Recoveries:    p.recoveries.Load(),
		Epoch:         int64(p.epoch.Load()),
		SyncCalls:     p.syncCalls.Load(),
		GroupCommits:  p.groupCommits.Load(),
		WALFsyncs:     p.walFsyncs.Load(),
	}
}
