package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
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

// DB is a B+tree keyed by []byte in lexicographic order. Every mutation
// is one Apply of a Batch, serialized against the others; reads
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

	// Operation counters, surfaced through Stats for the observability
	// layer (updated atomically; the CLI may snapshot concurrently).
	gets       int64
	puts       int64
	deletes    int64
	seeks      int64
	cursorHits int64
}

// Options configure Open.
type Options struct {
	// CachePages is the buffer-pool capacity in pages (default 256).
	CachePages int
	// Durability is ignored: every file-backed store commits through
	// the write-ahead log (see wal.go).
	//
	// Deprecated: kept only until the benchmark module stops setting
	// it.
	Durability bool
	// FS overrides the filesystem the store and its log live on
	// (default: the real OS filesystem). The fault-injection tests pass
	// a FaultFS to fail or tear specific writes and simulate crashes.
	FS VFS
}

// initState sets up the DB's maps, channels and tuning defaults.
func (db *DB) initState() {
	db.pins = make(map[uint64]int)
	db.retained = make(map[uint32][]pageVersion)
	db.repDirty = make(map[uint32]struct{})
	db.gc.wake = make(chan struct{})
}

// Open opens (or creates) a store file. Before anything is read, a
// leftover write-ahead log from an interrupted commit is replayed
// (complete) or discarded (incomplete), so the store always reopens to
// its last committed state. Every Sync is a write-ahead-log commit:
// page images and a commit record are fsynced to <path>.wal before any
// in-place page write, and the log is emptied once the in-place writes
// are on stable storage, so a crash or torn write at any point leaves
// the store at its last committed state. Concurrent Syncs share one
// commit (groupcommit.go). Between Syncs dirty pages are pinned in the
// buffer pool; each commit evicts the pool back to CachePages.
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
	// A transaction that splits many leaves rewrites its one image; the
	// pool takes the buffer at commit, so the next transaction makes its own.
	buf := db.w.hdr
	if buf == nil {
		buf = make([]byte, PageSize)
		copy(buf, magic)
	}
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
		// The sibling pointer lives at a fixed offset, so the leaf
		// chain can be followed without decoding entries.
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

// deserialize decodes a page image for a write transaction — the write
// path's decoder only; reads search page images in place. Both check the
// image with indexPage. The node may be mutated and outlive the
// immutable pool buffer, so it never aliases buf: the entry bytes are
// copied once and every key and value is a capped slice of that copy.
func deserialize(buf []byte) (*node, error) {
	var index [maxEntries]uint16 // stays on the stack
	offs, err := indexPage(buf, index[:0])
	if err != nil {
		return nil, err
	}
	n := &node{typ: buf[0]}
	leaf := n.typ == pageLeaf
	nkeys := len(offs)
	start := 7
	if leaf {
		n.next = binary.BigEndian.Uint32(buf[3:])
	} else {
		start = 3 + 4*(nkeys+1)
		n.children = make([]uint32, nkeys+1)
		for i := range n.children {
			n.children[i] = childAt(buf, i)
		}
	}
	end := start
	if nkeys > 0 {
		last := int(offs[nkeys-1])
		end = last + 2 + len(keyAt(buf, last))
		if leaf {
			end += 2 + len(valAt(buf, last))
		}
	}
	entries := append([]byte(nil), buf[start:end]...)
	n.keys = make([][]byte, nkeys)
	if leaf {
		n.vals = make([][]byte, nkeys)
	}
	for i, off := range offs {
		n.keys[i] = keyAt(entries, int(off)-start)
		if leaf {
			n.vals[i] = valAt(entries, int(off)-start)
		}
	}
	n.sz = end
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

// Get returns the value for key as of the snapshot's epoch. It reads
// every page on the way in place, decoding none, and the value it returns
// aliases the immutable page image, as Iterator.Value does: it stays
// valid, but retaining it pins the page, and it must not be written to.
func (s *Snapshot) Get(key []byte) ([]byte, bool, error) {
	atomic.AddInt64(&s.db.gets, 1)
	var index [maxEntries]uint16 // stays on the stack
	id := s.root
	for depth := 0; depth <= maxHeight; depth++ {
		buf, err := s.readPage(id)
		if err != nil {
			return nil, false, err
		}
		offs, err := indexPage(buf, index[:0])
		if err != nil {
			return nil, false, err
		}
		v := pageView{buf: buf, offs: offs}
		if !v.isLeaf() {
			id = childAt(buf, v.childIndex(key))
			continue
		}
		i, found := v.search(key)
		if !found {
			return nil, false, nil
		}
		return valAt(buf, int(offs[i])), true, nil
	}
	return nil, false, errTooDeep
}

// Batch is a set of puts and deletes that Apply commits as one
// transaction. It keeps the slices it is given, and so does the tree:
// they must stay unchanged until Apply returns. Apply serializes every
// page it writes before returning and keeps none of the caller's bytes
// past that, so afterwards the caller may reuse or overwrite them.
type Batch struct {
	keys, vals [][]byte // puts, parallel, in the order given
	dels       [][]byte
}

// Put adds an insert-or-replace of key to the batch.
func (b *Batch) Put(key, value []byte) {
	b.keys = append(b.keys, key)
	b.vals = append(b.vals, value)
}

// Delete adds the removal of key to the batch.
func (b *Batch) Delete(key []byte) { b.dels = append(b.dels, key) }

// Apply commits a batch as one transaction — one epoch: a concurrent
// snapshot sees all of it or none of it, and a failed Apply leaves the
// committed state untouched. The deletes go first, then the puts, each
// in key order; the puts sort stably, so a later duplicate wins, as it
// would in sequential Puts, and a key both deleted and put ends up put.
// In key order almost every key lands through the transaction's leaf
// cursor (see putTxn): each leaf the batch touches is decoded once, on
// first touch, takes all its keys as that one shadow node, and is
// serialized once, at commit. The shadow nodes hold the batch's own key
// and value slices, uncopied, until that commit, which Apply runs before
// it returns; after a failure they are dropped. Deleting an absent key is
// a no-op, and a batch that changes nothing publishes no epoch.
//
// Leaves are never merged or rebalanced and this store does not compact:
// a leaf thinned by deletes keeps its page and separator range, and only
// later inserts into that range reuse its space.
func (db *DB) Apply(b *Batch) error {
	if len(b.keys) != len(b.vals) {
		return fmt.Errorf("kvstore: batch of %d keys but %d values", len(b.keys), len(b.vals))
	}
	for i, k := range b.keys {
		if err := validatePut(k, b.vals[i]); err != nil {
			return err
		}
	}
	puts, dels := keyOrder(b.keys), keyOrder(b.dels)
	atomic.AddInt64(&db.puts, int64(len(b.keys)))
	atomic.AddInt64(&db.deletes, int64(len(b.dels)))
	lockTimed(&db.writerMu, writerLockWait)
	defer db.writerMu.Unlock()
	db.beginWrite()
	err := db.applyTxn(b, puts, dels)
	if err == nil {
		err = db.commitWrite()
	}
	if err != nil {
		db.abortWrite()
	}
	return err
}

// applyTxn runs a batch's deletes, then its puts, each in the given
// index order (writerMu held, beginWrite done). The shadow tree keeps
// the batch's own key and value slices; commitWrite serializes them
// before Apply returns.
func (db *DB) applyTxn(b *Batch, puts, dels []int) error {
	for j := range b.dels {
		if err := db.deleteTxn(b.dels[at(dels, j)]); err != nil {
			return err
		}
	}
	for j := range b.keys {
		i := at(puts, j)
		if err := db.putTxn(b.keys[i], b.vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// keyOrder returns the indices of keys in stable key order, or nil when
// keys are in order already, as every shred flush is.
func keyOrder(keys [][]byte) []int {
	if slices.IsSortedFunc(keys, bytes.Compare) {
		return nil
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bytes.Compare(keys[order[a]], keys[order[b]]) < 0 })
	return order
}

// at returns order[j], or j when order is nil (keyOrder's in-order case).
func at(order []int, j int) int {
	if order == nil {
		return j
	}
	return order[j]
}

// Put inserts or replaces a key as one transaction.
func (db *DB) Put(key, value []byte) error {
	return db.Apply(&Batch{keys: [][]byte{key}, vals: [][]byte{value}})
}

// PutBatch inserts or replaces many keys as one transaction; keys and
// vals are parallel.
func (db *DB) PutBatch(keys, vals [][]byte) error { return db.Apply(&Batch{keys: keys, vals: vals}) }

// Delete removes a key as one transaction; deleting an absent key is a
// no-op and publishes no epoch.
func (db *DB) Delete(key []byte) error { return db.Apply(&Batch{dels: [][]byte{key}}) }

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
// must stay unchanged until the transaction commits or aborts.
//
// Cursor path: when the transaction's leaf cursor still covers key and
// the insert cannot overflow the page, the new entry goes straight into
// that leaf — no descent, no parent updates, and, once the leaf is in
// the shadow set, no decode or encode either: readNodeW hands back the
// shadow node and writeNodeW only checks its size. An overflowing insert
// has already landed in the leaf it read — the shadow node itself when
// the leaf was dirty — and the descent's leafInsert then finds the key
// and replaces it in place, so the split sees the same entries and
// insertion index either way. Otherwise the descent records the path,
// so splits propagate iteratively. Both paths build the tree one
// transaction per key builds (guarded by TestPutBatchMatchesSortedPuts).
func (db *DB) putTxn(key, value []byte) error {
	if n, err := db.cursorLeaf(key); err != nil {
		return err
	} else if n != nil {
		leafInsert(n, key, value)
		if n.size() <= PageSize {
			atomic.AddInt64(&db.cursorHits, 1)
			return db.writeNodeW(db.w.leaf, n)
		}
	}
	id, n, path, err := db.descend(key)
	if err != nil {
		return err
	}
	at := leafInsert(n, key, value)
	if n.size() <= PageSize {
		return db.writeNodeW(id, n)
	}
	// Split: the cursor leaf's range is about to change.
	db.w.leafOK = false
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

// cursorLeaf returns the transaction's cursor leaf when its separator
// range [low, high) covers key (nil bounds are unbounded), else nil.
func (db *DB) cursorLeaf(key []byte) (*node, error) {
	w := &db.w
	if !w.leafOK ||
		w.low != nil && bytes.Compare(key, w.low) < 0 ||
		w.high != nil && bytes.Compare(key, w.high) >= 0 {
		return nil, nil
	}
	return db.readNodeW(w.leaf)
}

// descend walks the transaction's tree from the root to the leaf whose
// range covers key, returns it with the internal nodes on the way (a
// split propagates up them), and leaves the cursor on it.
func (db *DB) descend(key []byte) (uint32, *node, []pathEntry, error) {
	var (
		path      []pathEntry
		low, high []byte
	)
	id := db.w.root
	for {
		n, err := db.readNodeW(id)
		if err != nil {
			return 0, nil, nil, err
		}
		if n.typ == pageLeaf {
			db.w.leafOK, db.w.leaf, db.w.low, db.w.high = true, id, low, high
			return id, n, path, nil
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
}

// deleteTxn removes one key from the transaction's shadow tree, through
// the cursor leaf when it covers key (writerMu held, beginWrite done).
// Deletes never move separators, so the cursor stays valid.
func (db *DB) deleteTxn(key []byte) error {
	id := db.w.leaf
	n, err := db.cursorLeaf(key)
	if err == nil && n == nil {
		id, n, _, err = db.descend(key)
	}
	if err != nil {
		return err
	}
	i, found := search(n.keys, key)
	if !found {
		return nil
	}
	n.sz -= 4 + len(n.keys[i]) + len(n.vals[i])
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	return db.writeNodeW(id, n)
}

// leafInsert puts key into the decoded leaf, replacing an existing entry,
// and returns the index the key landed at (the split decision uses it).
// The leaf keeps key and value themselves (putTxn's contract). A key past
// the leaf's last one, every key of a sorted batch, appends unsearched.
func leafInsert(n *node, key, value []byte) int {
	if last := len(n.keys) - 1; last < 0 || bytes.Compare(key, n.keys[last]) > 0 {
		if len(n.keys) == cap(n.keys) {
			n.grow(4 + len(key) + len(value))
		}
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, value)
		n.sz += 4 + len(key) + len(value)
		return last + 1
	}
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

// grow makes room in a full leaf for as many more entries of entry
// bytes as its page still holds, and at least a quarter more than it
// has: a leaf filled by appends — a fresh right half, the tree's first
// leaf, a leaf decoded at its exact length — reallocates about once, not
// at every doubling.
func (n *node) grow(entry int) {
	c := len(n.keys) + max((PageSize-n.sz)/entry+1, len(n.keys)/4)
	n.keys = append(make([][]byte, 0, c), n.keys...)
	n.vals = append(make([][]byte, 0, c), n.vals...)
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
		// Right half starts at mid; its first key is promoted (keys are
		// never written in place, so the separator may share its bytes).
		// The left half's slices are capped at mid: both halves stay in
		// the shadow set as decoded nodes over one backing array, and a
		// later insert into the left half must reallocate rather than
		// append over the right half. The new right leaf inherits the
		// sibling pointer and the left leaf links to it (below, once its
		// page id exists), keeping the leaf chain intact across splits.
		left = &node{typ: pageLeaf, keys: n.keys[:mid:mid], vals: n.vals[:mid:mid]}
		rightN = &node{typ: pageLeaf, next: n.next, keys: n.keys[mid:], vals: n.vals[mid:]}
		promoted = n.keys[mid]
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
	s.FastPathHits = atomic.LoadInt64(&db.cursorHits)
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
