package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Maximum sizes; a leaf must fit at least two entries per page.
const (
	MaxKeySize   = 512
	MaxValueSize = 1536
)

const (
	pageLeaf     = 1
	pageInternal = 2
)

// DB is a B+tree keyed by []byte in lexicographic order. Mutations
// (Put, PutBatch, Delete) are serialized against each other; reads
// (Get, Seek, First, Ascend, AscendPrefix, or an explicit OpenSnapshot)
// run on MVCC snapshots of the last committed epoch and never wait for —
// or block — a writer. Everything is safe for concurrent use.
type DB struct {
	// writerMu serializes writer transactions: exactly one mutation
	// builds shadow pages at a time. Readers never touch it.
	writerMu sync.Mutex
	// publishMu guards the committed (root, epoch, npages) triple, the
	// snapshot pin registry, and the flush collector's cut. Held briefly:
	// opening/closing a snapshot, publishing a commit, collecting a flush
	// batch. See mvcc.go for the full lock order.
	publishMu sync.Mutex
	// versionMu guards the retained-version table.
	versionMu sync.Mutex

	pager *pager
	path  string

	// Committed state (published under publishMu; the single writer may
	// read it without, since only commitWrite ever changes it).
	root  uint32
	epoch uint64

	// Snapshot pins: open-snapshot count per epoch, plus the cached
	// minimum (valid while len(pins) > 0). Guarded by publishMu.
	pins   map[uint64]int
	minPin uint64

	// Retained superseded page images, keyed by page id, each holding
	// versions in ascending supersededAt order. Guarded by versionMu;
	// retainedCount mirrors the total for a lock-free emptiness check on
	// the read path.
	retained      map[uint32][]pageVersion
	retainedCount atomic.Int64
	retiredPages  atomic.Int64
	snapshotsOpen atomic.Int64

	// w is the in-flight writer transaction (guarded by writerMu).
	w writeTxn

	// gc is the group-commit ticket state shared by Sync callers. gcWait
	// is how long a leader with no follower holds its ticket open before
	// flushing; always zero outside the in-package tests, which set it to
	// widen the window a concurrent Close or Sync has to land in.
	gc     groupCommit
	gcWait time.Duration

	// Replication state (guarded by publishMu): registered commit
	// subscribers, the page ids committed since the last replicated cut,
	// and the cut sequence number. appliedLSN is set when this store is
	// itself a follower applying batches. closed rejects operations after
	// Close so a racing Sync cannot flush against released descriptors.
	repSubs  []*CommitSub
	repDirty map[uint32]struct{}
	// epochShift rebases applied batch epochs past this store's own
	// history; pinned at the first ApplyCommitBatch (repShifted).
	epochShift uint64
	repShifted bool
	// commitLSN and appliedLSN are written under publishMu / writerMu but
	// read lock-free (Stats, read-your-writes floors).
	commitLSN  atomic.Uint64
	appliedLSN atomic.Uint64
	closed     atomic.Bool

	// Last header image written (or loaded): writeHeaderW skips the page
	// write when root and page count are unchanged, so a transaction that
	// grows nothing re-dirties nothing. Guarded by writerMu.
	hdrValid  bool
	hdrRoot   uint32
	hdrNpages uint32

	// Sorted-insert fast path: the leaf that served the last Put plus the
	// separator bounds [fastLow, fastHigh) routing to it. When the next
	// key still falls in that range and the insert cannot split, the
	// root-to-leaf descent is skipped entirely. Guarded by writerMu.
	// noFastPath and readAhead = 0 select the reference paths (full
	// descent, no prefetch) that in-package tests compare against; nothing
	// outside the tests sets them.
	fastValid   bool
	fastLeaf    uint32
	fastLow     []byte // nil = unbounded below
	fastHigh    []byte // nil = unbounded above
	noFastPath  bool
	readAhead   int // leaf pages a scan prefetches; 0 disables
	fastHits    int64
	batchedPuts int64

	// Operation counters, surfaced through Stats for the observability
	// layer (updated atomically; the CLI may snapshot concurrently).
	gets    int64
	puts    int64
	deletes int64
	seeks   int64
}

// Options configure Open.
type Options struct {
	// CachePages is the buffer-pool capacity in pages (default 256).
	CachePages int
	// Durability enables the write-ahead-log commit protocol: Sync
	// records every dirty page image plus a commit marker in <path>.wal
	// (fsynced) before any in-place page write, and empties the log once
	// the in-place writes are on stable storage, so a crash or torn
	// write at any point leaves the store recoverable to its last
	// committed state. Concurrent Syncs share one commit — see
	// groupcommit.go. Between Syncs dirty pages are pinned in memory
	// instead of being flushed on eviction. Ignored by OpenMemory.
	// Independent of this flag, Open always replays (or discards) a
	// leftover <path>.wal — see wal.go for the protocol.
	Durability bool
	// FS overrides the filesystem the store and its log live on
	// (default: the real OS filesystem). The fault-injection tests pass
	// a FaultFS to fail or tear specific writes and simulate crashes.
	FS VFS
}

// defaultReadAhead is how many leaf pages an ordered scan prefetches
// into the buffer pool ahead of its cursor, following leaf sibling
// pointers. Read-ahead triggers when a scan crosses from one leaf into the
// next, so point lookups and scans that end inside their first leaf never
// prefetch.
const defaultReadAhead = 8

// initState sets up the DB's maps, channels and tuning defaults.
func (db *DB) initState() {
	db.readAhead = defaultReadAhead
	db.pins = make(map[uint64]int)
	db.retained = make(map[uint32][]pageVersion)
	db.repDirty = make(map[uint32]struct{})
	db.gc.wake = make(chan struct{})
}

// Open opens (or creates) a store file. Before anything is read, a
// leftover write-ahead log from an interrupted durable commit is
// replayed (complete) or discarded (incomplete), so the store always
// reopens to its last committed state.
func Open(path string, opts *Options) (*DB, error) {
	capacity := 256
	if opts != nil && opts.CachePages > 0 {
		capacity = opts.CachePages
	}
	fs := VFS(osFS{})
	if opts != nil && opts.FS != nil {
		fs = opts.FS
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	replayed, err := recoverWAL(fs, path, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	p, err := newPager(f, capacity)
	if err != nil {
		f.Close()
		return nil, err
	}
	p.fs = fs
	p.walPath = walSuffix(path)
	p.durable = opts != nil && opts.Durability
	if replayed {
		p.recoveries.Store(1)
	}
	db := &DB{pager: p, path: path}
	db.initState()
	if p.npages.Load() == 0 {
		if err := db.initialize(); err != nil {
			f.Close()
			return nil, err
		}
	} else if err := db.loadHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

// OpenMemory returns a purely in-memory store with the same behaviour
// (including the buffer pool and block counters).
func OpenMemory(opts *Options) *DB {
	capacity := 256
	if opts != nil && opts.CachePages > 0 {
		capacity = opts.CachePages
	}
	p, _ := newPager(nil, capacity)
	db := &DB{pager: p}
	db.initState()
	if err := db.initialize(); err != nil {
		panic(err) // cannot fail in memory
	}
	return db
}

// initialize builds the empty tree as the first committed transaction:
// page 0 = header, page 1 = empty root leaf.
func (db *DB) initialize() error {
	db.beginWrite()
	hdr := db.walloc() // page 0: header
	if hdr != 0 {
		return fmt.Errorf("kvstore: header must be page 0, got %d", hdr)
	}
	root := db.walloc()
	db.w.root = root
	if err := db.writeNodeW(root, (&node{typ: pageLeaf}).measure()); err != nil {
		return err
	}
	if err := db.writeHeaderW(); err != nil {
		return err
	}
	return db.commitWrite()
}

// writeHeaderW writes the header page into the transaction's shadow set
// when the root or page count changed since the last header image.
func (db *DB) writeHeaderW() error {
	if db.hdrValid && db.hdrRoot == db.w.root && db.hdrNpages == db.w.npages {
		return nil
	}
	buf := make([]byte, PageSize)
	copy(buf, magic)
	binary.BigEndian.PutUint32(buf[8:], db.w.root)
	binary.BigEndian.PutUint32(buf[12:], db.w.npages)
	db.w.hdr = buf
	db.hdrValid, db.hdrRoot, db.hdrNpages = true, db.w.root, db.w.npages
	return nil
}

func (db *DB) loadHeader() error {
	buf, err := db.pager.read(0)
	if err != nil {
		return err
	}
	if string(buf[:8]) != magic {
		return fmt.Errorf("kvstore: bad magic (corrupt or not a store file)")
	}
	db.root = binary.BigEndian.Uint32(buf[8:])
	if db.root == 0 || db.root >= db.pager.npages.Load() {
		return fmt.Errorf("kvstore: corrupt header: root page %d of %d", db.root, db.pager.npages.Load())
	}
	// Record the header as stored (not as derived from the file size), so
	// the skip in writeHeaderW never leaves a stale image on disk.
	db.hdrValid, db.hdrRoot, db.hdrNpages = true, db.root, binary.BigEndian.Uint32(buf[12:])
	return nil
}

// node is the in-memory form of a tree page. sz caches the serialized
// size: leafInsert and Delete keep it current, so the fit checks on the
// insert path cost O(1); a node built or restructured from slices gets
// it from measure.
type node struct {
	typ      byte
	next     uint32 // leaves only: right sibling page id, 0 = none
	keys     [][]byte
	vals     [][]byte // leaves only
	children []uint32 // internal only, len(keys)+1
	sz       int
}

// size returns the serialized byte size.
func (n *node) size() int { return n.sz }

// measure recomputes the serialized size from the entries and returns n.
func (n *node) measure() *node {
	sz := 3 // type + nkeys
	if n.typ == pageLeaf {
		sz += 4 // sibling pointer
	}
	for i, k := range n.keys {
		sz += 2 + len(k)
		if n.typ == pageLeaf {
			sz += 2 + len(n.vals[i])
		}
	}
	if n.typ == pageInternal {
		sz += 4 * len(n.children)
	}
	n.sz = sz
	return n
}

// serialize encodes the node into a fresh page image. It re-measures
// rather than trust the cached size: this runs once per dirty node per
// commit, and a page image is never written past its end.
func (n *node) serialize() ([]byte, error) {
	if sz := n.measure().size(); sz > PageSize {
		return nil, fmt.Errorf("kvstore: node overflows page (%d bytes)", sz)
	}
	buf := make([]byte, PageSize)
	buf[0] = n.typ
	binary.BigEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	off := 3
	if n.typ == pageLeaf {
		// The sibling pointer lives at a fixed offset so the read-ahead
		// chain walk can follow it without decoding entries.
		binary.BigEndian.PutUint32(buf[off:], n.next)
		off += 4
	} else {
		for _, c := range n.children {
			binary.BigEndian.PutUint32(buf[off:], c)
			off += 4
		}
	}
	for i, k := range n.keys {
		binary.BigEndian.PutUint16(buf[off:], uint16(len(k)))
		off += 2
		copy(buf[off:], k)
		off += len(k)
		if n.typ == pageLeaf {
			v := n.vals[i]
			binary.BigEndian.PutUint16(buf[off:], uint16(len(v)))
			off += 2
			copy(buf[off:], v)
			off += len(v)
		}
	}
	return buf, nil
}

// deserialize decodes a page image. The node may be mutated and outlive
// the immutable pool buffer, so it never aliases buf: one pass checks the
// entry bounds, then the entry bytes are copied once and every key and
// value is a capped slice of that copy, with keys/vals sized from nkeys.
func deserialize(buf []byte) (*node, error) {
	n := &node{typ: buf[0]}
	if n.typ != pageLeaf && n.typ != pageInternal {
		return nil, fmt.Errorf("kvstore: corrupt page: type %d", n.typ)
	}
	leaf := n.typ == pageLeaf
	nkeys := int(binary.BigEndian.Uint16(buf[1:]))
	off := 3
	if leaf {
		n.next = binary.BigEndian.Uint32(buf[off:])
		off += 4
	} else {
		if off+4*(nkeys+1) > len(buf) {
			return nil, fmt.Errorf("kvstore: corrupt internal page")
		}
		n.children = make([]uint32, nkeys+1)
		for i := range n.children {
			n.children[i] = binary.BigEndian.Uint32(buf[off:])
			off += 4
		}
	}
	// A leaf entry is two length-prefixed fields (key, value), an internal
	// entry one (key).
	fields := 1
	if leaf {
		fields = 2
	}
	start := off
	for f := 0; f < nkeys*fields; f++ {
		if off+2 > len(buf) {
			return nil, fmt.Errorf("kvstore: corrupt page: entry %d", f/fields)
		}
		off += 2 + int(binary.BigEndian.Uint16(buf[off:]))
		if off > len(buf) {
			return nil, fmt.Errorf("kvstore: corrupt page: entry %d length", f/fields)
		}
	}
	entries := append([]byte(nil), buf[start:off]...)
	n.keys = make([][]byte, nkeys)
	if leaf {
		n.vals = make([][]byte, nkeys)
	}
	for f, at := 0, 0; f < nkeys*fields; f++ {
		l := int(binary.BigEndian.Uint16(entries[at:]))
		at += 2
		b := entries[at : at+l : at+l]
		at += l
		if f%fields == 1 {
			n.vals[f/2] = b
		} else {
			n.keys[f/fields] = b
		}
	}
	n.sz = off
	return n, nil
}

// readNode decodes a page of the last committed state.
func (db *DB) readNode(id uint32) (*node, error) {
	buf, err := db.pager.read(id)
	if err != nil {
		return nil, err
	}
	return deserialize(buf)
}

// Get returns the value for key, or (nil, false, nil) when absent. It
// runs on a snapshot of the last committed epoch, so it never waits for
// an in-flight mutation.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	snap := db.OpenSnapshot()
	defer snap.Close()
	return snap.Get(key)
}

// Get returns the value for key as of the snapshot's epoch.
func (s *Snapshot) Get(key []byte) ([]byte, bool, error) {
	atomic.AddInt64(&s.db.gets, 1)
	id := s.root
	for {
		n, err := s.readNode(id)
		if err != nil {
			return nil, false, err
		}
		if n.typ == pageLeaf {
			i, found := search(n.keys, key)
			if !found {
				return nil, false, nil
			}
			return n.vals[i], true, nil
		}
		id = n.children[childIndex(n.keys, key)]
	}
}

// Put inserts or replaces a key. The mutation is one transaction:
// readers observe either none or all of it.
func (db *DB) Put(key, value []byte) error {
	if err := validatePut(key, value); err != nil {
		return err
	}
	atomic.AddInt64(&db.puts, 1)
	_, key, value = own(make([]byte, 0, len(key)+len(value)), key, value)
	lockTimed(&db.writerMu, writerLockWait)
	defer db.writerMu.Unlock()
	db.beginWrite()
	if err := db.putTxn(key, value); err != nil {
		db.abortWrite()
		return err
	}
	if err := db.commitWrite(); err != nil {
		db.abortWrite()
		return err
	}
	return nil
}

// PutBatch inserts (or replaces) many keys in one pass: the batch is
// sorted first (stably, so a later duplicate wins, matching sequential
// Puts) and applied in key order, which drives almost every insert
// through the cached-leaf fast path — leaves are walked once instead of
// descending from the root per key. keys and vals must be parallel; the
// batch copies them into one arena, so the caller may reuse them on
// return. The whole batch commits as one transaction (one epoch): a
// concurrent snapshot sees all of it or none of it. Inside it each leaf
// the batch touches is decoded once, on first touch, takes all its keys
// as that one shadow node, and is serialized once, at commit.
func (db *DB) PutBatch(keys, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kvstore: PutBatch: %d keys but %d values", len(keys), len(vals))
	}
	total := 0
	for i, k := range keys {
		if err := validatePut(k, vals[i]); err != nil {
			return err
		}
		total += len(k) + len(vals[i])
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	if !sort.SliceIsSorted(order, func(a, b int) bool {
		return bytes.Compare(keys[order[a]], keys[order[b]]) < 0
	}) {
		sort.SliceStable(order, func(a, b int) bool {
			return bytes.Compare(keys[order[a]], keys[order[b]]) < 0
		})
	}
	atomic.AddInt64(&db.puts, int64(len(keys)))
	atomic.AddInt64(&db.batchedPuts, int64(len(keys)))
	lockTimed(&db.writerMu, writerLockWait)
	defer db.writerMu.Unlock()
	db.beginWrite()
	arena := make([]byte, 0, total)
	for _, i := range order {
		var k, v []byte
		arena, k, v = own(arena, keys[i], vals[i])
		if err := db.putTxn(k, v); err != nil {
			db.abortWrite()
			return err
		}
	}
	if err := db.commitWrite(); err != nil {
		db.abortWrite()
		return err
	}
	return nil
}

// own appends key and value to arena and returns the grown arena and the
// two copies, capped so neither can grow into its neighbour. The tree
// keeps these bytes after the caller's slices are reused, so every put
// hands putTxn owned copies; callers size the arena for the whole batch,
// which makes that one allocation per PutBatch.
func own(arena, key, value []byte) (grown, k, v []byte) {
	at := len(arena)
	arena = append(arena, key...)
	mid := len(arena)
	arena = append(arena, value...)
	return arena, arena[at:mid:mid], arena[mid:len(arena):len(arena)]
}

func validatePut(key, value []byte) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("kvstore: key size %d out of range [1,%d]", len(key), MaxKeySize)
	}
	if len(value) > MaxValueSize {
		return fmt.Errorf("kvstore: value size %d exceeds %d", len(value), MaxValueSize)
	}
	return nil
}

// pathEntry is one internal node on the root-to-leaf descent, kept so a
// leaf split can propagate upward without re-descending.
type pathEntry struct {
	id uint32
	n  *node
	ci int
}

// putTxn inserts one key into the transaction's shadow tree (writerMu
// held, beginWrite done). The tree keeps key and value as given, so they
// must be copies the caller will not reuse (see own).
//
// Fast path: when the previous Put cached a leaf whose separator range
// still covers key and the insert cannot overflow the page, the new
// entry goes straight into that leaf — no descent, no parent updates,
// and, once the leaf is in the shadow set, no decode or encode either:
// readNodeW hands back the shadow node and writeNodeW only checks its
// size. An overflowing insert has already landed in the leaf it read —
// the shadow node itself when the leaf was dirty — and the slow path's
// leafInsert then finds the key and replaces it in place, so the split
// sees the same entries and insertion index either way.
// Otherwise the slow path descends from the root recording the path, so
// splits propagate iteratively; it re-caches the target leaf for the
// next call. Both paths produce byte-identical trees to the pre-cache
// recursive insert (guarded by TestFastPathTreeIdentical).
func (db *DB) putTxn(key, value []byte) error {
	if db.fastValid && !db.noFastPath && db.fastCovers(key) {
		n, err := db.readNodeW(db.fastLeaf)
		if err != nil {
			return err
		}
		if n.typ == pageLeaf {
			leafInsert(n, key, value)
			if n.size() <= PageSize {
				atomic.AddInt64(&db.fastHits, 1)
				return db.writeNodeW(db.fastLeaf, n)
			}
		}
		// The leaf would split (or the cache is stale): fall back to the
		// full descent, which needs the parent path.
		db.fastValid = false
	}

	var (
		path      []pathEntry
		low, high []byte
	)
	id := db.w.root
	var n *node
	for {
		var err error
		n, err = db.readNodeW(id)
		if err != nil {
			return err
		}
		if n.typ == pageLeaf {
			break
		}
		ci := childIndex(n.keys, key)
		if ci > 0 {
			low = n.keys[ci-1]
		}
		if ci < len(n.keys) {
			high = n.keys[ci]
		}
		path = append(path, pathEntry{id: id, n: n, ci: ci})
		id = n.children[ci]
	}
	at := leafInsert(n, key, value)
	if n.size() <= PageSize {
		db.fastValid, db.fastLeaf, db.fastLow, db.fastHigh = true, id, low, high
		return db.writeNodeW(id, n)
	}
	// Split: the cached leaf's range is about to change.
	db.fastValid = false
	promoted, right, err := db.finishInsert(id, n, at)
	if err != nil {
		return err
	}
	for i := len(path) - 1; i >= 0 && promoted != nil; i-- {
		p := path[i]
		p.n.keys = append(p.n.keys, nil)
		copy(p.n.keys[p.ci+1:], p.n.keys[p.ci:])
		p.n.keys[p.ci] = promoted
		p.n.children = append(p.n.children, 0)
		copy(p.n.children[p.ci+2:], p.n.children[p.ci+1:])
		p.n.children[p.ci+1] = right
		p.n.measure()
		promoted, right, err = db.finishInsert(p.id, p.n, -1)
		if err != nil {
			return err
		}
	}
	if promoted != nil {
		// Root split: grow the tree.
		newRoot := db.walloc()
		nr := (&node{typ: pageInternal, keys: [][]byte{promoted}, children: []uint32{db.w.root, right}}).measure()
		if err := db.writeNodeW(newRoot, nr); err != nil {
			return err
		}
		db.w.root = newRoot
		return db.writeHeaderW()
	}
	return nil
}

// fastCovers reports whether key falls in the cached leaf's separator
// range [fastLow, fastHigh); nil bounds are unbounded.
func (db *DB) fastCovers(key []byte) bool {
	if db.fastLow != nil && bytes.Compare(key, db.fastLow) < 0 {
		return false
	}
	if db.fastHigh != nil && bytes.Compare(key, db.fastHigh) >= 0 {
		return false
	}
	return true
}

// leafInsert puts key into the decoded leaf, replacing an existing entry,
// and returns the index the key landed at (the split decision uses it).
// The leaf keeps key and value themselves (putTxn's contract).
func leafInsert(n *node, key, value []byte) int {
	i, found := search(n.keys, key)
	if found {
		n.sz += len(value) - len(n.vals[i])
		n.vals[i] = value
		return i
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = value
	n.sz += 4 + len(key) + len(value)
	return i
}

// finishInsert writes the node back into the transaction, splitting it
// first if it overflows. The split point balances *bytes*, not entry
// counts: with variable-length entries a count split can leave one half
// still overflowing.
//
// insertAt is the index of the entry whose insertion caused the overflow
// (-1 when unknown, e.g. internal cascades). When it lies at or past the
// byte midpoint of a leaf, the split happens at the insertion point
// instead: the prefix keys[0:insertAt] — exactly the entries that fit the
// page before this insert — stay behind as a packed left leaf, and the
// new key starts the right leaf. Under sorted insertion (the shredder's
// per-type runs, or any PutBatch) every overflow is rightmost, so leaves
// fill to ~100% instead of the ~55% that byte-balanced halves converge
// to, cutting the file's page count — and with it shred page writes —
// by about a third. Random workloads are unaffected: a mid-leaf insert
// below the midpoint still splits balanced, and the insertion-point rule
// never yields a left half under half a page.
func (db *DB) finishInsert(id uint32, n *node, insertAt int) ([]byte, uint32, error) {
	if n.size() <= PageSize {
		return nil, 0, db.writeNodeW(id, n)
	}
	mid := n.splitPoint()
	if n.typ == pageLeaf &&
		insertAt >= mid && insertAt > 0 && insertAt < len(n.keys) {
		r := &node{typ: pageLeaf, keys: n.keys[insertAt:], vals: n.vals[insertAt:]}
		if r.measure().size() <= PageSize {
			mid = insertAt
		}
	}
	var promoted []byte
	var left, rightN *node
	if n.typ == pageLeaf {
		// Right half starts at mid; its first key is promoted (copied, so
		// the fast-path bounds that may keep it across transactions pin a
		// key, not the batch arena it came from). The left half's slices
		// are capped at mid: both halves stay in the shadow set as decoded
		// nodes over one backing array, and a later insert into the left
		// half must reallocate rather than append over the right half.
		// The new right leaf inherits the sibling pointer and the left
		// leaf links to it (below, once its page id exists), keeping the
		// scan read-ahead chain intact across splits.
		left = &node{typ: pageLeaf, keys: n.keys[:mid:mid], vals: n.vals[:mid:mid]}
		rightN = &node{typ: pageLeaf, next: n.next, keys: n.keys[mid:], vals: n.vals[mid:]}
		promoted = append([]byte(nil), n.keys[mid]...)
	} else {
		// The middle key moves up; the left half is capped as above.
		promoted = n.keys[mid]
		left = &node{typ: pageInternal, keys: n.keys[:mid:mid], children: n.children[: mid+1 : mid+1]}
		rightN = &node{typ: pageInternal, keys: n.keys[mid+1:], children: n.children[mid+1:]}
	}
	left.measure()
	rightN.measure()
	rightID := db.walloc()
	if n.typ == pageLeaf {
		left.next = rightID
	}
	if err := db.writeNodeW(id, left); err != nil {
		return nil, 0, err
	}
	if err := db.writeNodeW(rightID, rightN); err != nil {
		return nil, 0, err
	}
	if err := db.writeHeaderW(); err != nil { // page count changed
		return nil, 0, err
	}
	return promoted, rightID, nil
}

// splitPoint returns the index at which the serialized left half first
// reaches half the node's bytes, clamped so both halves are non-empty.
//
// The right half is then under half the node and fits, but the left half
// takes the entry that crosses the midpoint whole: a leaf holding two
// large values side by side (the store's ~1.4 KB text chunks) can leave
// it over a page. A leaf's split point therefore moves left until the
// left half fits. The entry handed to the right half keeps it within a
// page as long as no entry exceeds half a page's payload,
// (PageSize-7)/2 = 2044 bytes; the store's entries stay under 1.6 KB.
// (Put admits entries 8 bytes larger than that; a leaf of three such
// entries still fails in serialize.) Internal entries are at most
// MaxKeySize+6 bytes, so an internal node's halves always fit.
func (n *node) splitPoint() int {
	leaf := n.typ == pageLeaf
	entry := func(i int) int {
		if leaf {
			return 4 + len(n.keys[i]) + len(n.vals[i])
		}
		return 6 + len(n.keys[i])
	}
	half := n.size() / 2
	left := 3 // serialized size of the left half: header + entries[:mid]
	if leaf {
		left = 7 // header + sibling pointer
	}
	mid := 0
	for mid < len(n.keys)-1 && left < half {
		left += entry(mid)
		mid++
	}
	for leaf && left > PageSize && mid > 1 {
		mid--
		left -= entry(mid)
	}
	return mid
}

// Delete removes a key as one transaction; deleting an absent key is a
// no-op (and publishes no epoch). Leaves are never merged or rebalanced
// and this store does not compact: a thinned leaf keeps its page and
// separator range, and only later inserts into that range reuse its
// space. The store deletes key by key — a Drop or failed shred removes
// every record of a document id, an update deletes the records of the
// subtrees it rewrites — so those pages stay allocated.
func (db *DB) Delete(key []byte) error {
	atomic.AddInt64(&db.deletes, 1)
	lockTimed(&db.writerMu, writerLockWait)
	defer db.writerMu.Unlock()
	db.beginWrite()
	// The cached fast-path leaf stays valid: deletion never merges pages,
	// so separator ranges are unchanged.
	id := db.w.root
	for {
		n, err := db.readNodeW(id)
		if err != nil {
			db.abortWrite()
			return err
		}
		if n.typ == pageLeaf {
			i, found := search(n.keys, key)
			if !found {
				return db.commitWrite() // empty set: no-op
			}
			n.sz -= 4 + len(n.keys[i]) + len(n.vals[i])
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
			if err := db.writeNodeW(id, n); err != nil {
				db.abortWrite()
				return err
			}
			if err := db.commitWrite(); err != nil {
				db.abortWrite()
				return err
			}
			return nil
		}
		id = n.children[childIndex(n.keys, key)]
	}
}

// Close syncs and releases the file handles (store and log). The pager
// is closed even when the final sync fails — a failed flush must not
// leak the descriptors — and both errors are reported.
//
// Close is safe against in-flight group commits: it first marks the DB
// closed so new Sync calls fail fast with ErrClosed, then runs one final
// sync that joins (or leads) whatever commit ticket is pending — every
// parked committer is flushed and woken before the descriptors go away —
// and finally closes the replication subscriptions so follower apply
// loops exit instead of blocking forever on Next. A second Close is a
// no-op returning nil.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	syncErr := db.sync()
	db.closeSubs()
	closeErr := db.pager.close()
	return errors.Join(syncErr, closeErr)
}

// Stats returns cumulative block I/O, buffer-pool, MVCC, group-commit,
// and operation counters.
func (db *DB) Stats() Stats {
	s := db.pager.stats()
	s.Gets = atomic.LoadInt64(&db.gets)
	s.Puts = atomic.LoadInt64(&db.puts)
	s.Deletes = atomic.LoadInt64(&db.deletes)
	s.Seeks = atomic.LoadInt64(&db.seeks)
	s.FastPathHits = atomic.LoadInt64(&db.fastHits)
	s.BatchedPuts = atomic.LoadInt64(&db.batchedPuts)
	s.SnapshotsOpen = db.snapshotsOpen.Load()
	s.PagesRetained = db.retainedCount.Load()
	s.PagesRetired = db.retiredPages.Load()
	s.CommitLSN = int64(db.commitLSN.Load())
	s.AppliedLSN = int64(db.appliedLSN.Load())
	return s
}

// search finds the smallest index with keys[i] >= key, and whether it is an
// exact match.
func search(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], key)
}

// childIndex picks the child subtree for key in an internal node: child i
// holds keys < keys[i]; an exact separator match descends right.
func childIndex(keys [][]byte, key []byte) int {
	i, found := search(keys, key)
	if found {
		return i + 1
	}
	return i
}
