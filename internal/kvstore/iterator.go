package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Iterator walks keys in ascending order over one MVCC snapshot. No page
// is decoded on the way: internal pages are kept as a stack of (page
// image, child count, index) frames, and the leaf the cursor is in is
// read *in place*. Seek indexes each page on its root-to-leaf path to
// binary-search it; every page a scan enters by crossing is walked
// instead: a leaf entry by entry from its first, each entry's two length
// fields checked against the image when the walk reaches it, and an
// internal page by the child count in its header. So a sequential scan
// reads each entry once and allocates nothing past its first leaf. Pages
// are re-read through the snapshot (buffer pool or retained versions), so
// iteration plays well with eviction and never observes a concurrent
// commit — the view is frozen at the snapshot's epoch for the whole scan.
//
// Iterators obtained from DB.Seek / DB.First own a private snapshot,
// released automatically when the scan is exhausted or errors; call
// Close to release it early (stopping mid-scan). Iterators from
// Snapshot.Seek / Snapshot.First borrow the caller's snapshot and never
// close it.
type Iterator struct {
	snap  *Snapshot
	owned bool // close snap when the scan ends
	// The internal pages on the cursor's root-to-leaf path, root first:
	// the first len(frames) in place, so a scan of a tree that shallow
	// allocates nothing for them, and the deeper ones in deep.
	frames [3]frame
	deep   []frame
	depth  int
	leaf   []byte // the image of the leaf the cursor is in
	off    int    // the offset of the cursor entry's key-length field in leaf
	left   int    // the entries from the cursor's to leaf's last
	inLeaf bool
	err    error
	key    []byte
	val    []byte
	valid  bool
}

// frame is one internal page on the descent: its image, its child
// count, and the index of the child the scan is in.
type frame struct {
	buf    []byte
	n, idx int
}

// childAt returns an internal page image's i-th child pointer.
func childAt(buf []byte, i int) uint32 { return binary.BigEndian.Uint32(buf[3+4*i:]) }

// maxEntries bounds a well-formed page's entry count: an entry takes at
// least four bytes (a leaf's two length fields, or a key length and a
// child pointer) after a header of at least seven.
const maxEntries = (PageSize - 7) / 4

// maxHeight bounds a descent: a tree of 2^32 pages is shallower, so a
// deeper path can only be a cycle of corrupt child pointers.
const maxHeight = 32

var errTooDeep = fmt.Errorf("kvstore: corrupt tree: deeper than %d levels", maxHeight)

// pageView reads one page image, leaf or internal, in place: offs
// indexes its entries, and key/val return capped subslices of it. Pool
// images are never mutated (commits swap pointers), so the subslices stay
// valid while held; retaining one merely pins the page for the GC.
type pageView struct {
	buf  []byte
	offs []uint16 // offset of entry i's key-length field
}

// pageHeader checks a page image's header: its type, and that its entry
// count is plausible and an internal page's child area fits. It returns
// the entry count and the offset of the first entry.
func pageHeader(buf []byte) (nkeys, first int, err error) {
	if len(buf) < 7 || buf[0] != pageLeaf && buf[0] != pageInternal {
		return 0, 0, fmt.Errorf("kvstore: corrupt page")
	}
	nkeys = int(binary.BigEndian.Uint16(buf[1:]))
	first = 7
	if buf[0] == pageInternal {
		first = 3 + 4*(nkeys+1)
	}
	if nkeys > maxEntries || first > len(buf) {
		return 0, 0, fmt.Errorf("kvstore: corrupt page: %d keys", nkeys)
	}
	return nkeys, first, nil
}

// indexPage is the one full-page parser: it checks a page image's bounds
// and appends the offset of each entry's key-length field to offs.
func indexPage(buf []byte, offs []uint16) ([]uint16, error) {
	nkeys, off, err := pageHeader(buf)
	if err != nil {
		return nil, err
	}
	// A leaf entry is two length-prefixed fields (key, value), an internal
	// entry one (key).
	fields := 1
	if buf[0] == pageLeaf {
		fields = 2
	}
	for f := 0; f < nkeys*fields; f++ {
		if f%fields == 0 {
			offs = append(offs, uint16(off))
		}
		if off+2 > len(buf) {
			return nil, fmt.Errorf("kvstore: corrupt page: entry %d", f/fields)
		}
		if off += 2 + int(binary.BigEndian.Uint16(buf[off:])); off > len(buf) {
			return nil, fmt.Errorf("kvstore: corrupt page: entry %d length", f/fields)
		}
	}
	return offs, nil
}

func (v *pageView) isLeaf() bool { return v.buf[0] == pageLeaf }

func (v *pageView) key(i int) []byte { return keyAt(v.buf, int(v.offs[i])) }

// keyAt and valAt return the key and value of the entry whose key-length
// field sits at off, capped so an append cannot write into the page.
func keyAt(buf []byte, off int) []byte {
	end := off + 2 + int(binary.BigEndian.Uint16(buf[off:]))
	return buf[off+2 : end : end]
}

func valAt(buf []byte, off int) []byte {
	vo := off + 2 + int(binary.BigEndian.Uint16(buf[off:]))
	end := vo + 2 + int(binary.BigEndian.Uint16(buf[vo:]))
	return buf[vo+2 : end : end]
}

// search returns the index of the first key >= target, and whether it is
// an exact match.
func (v *pageView) search(target []byte) (int, bool) {
	lo, hi := 0, len(v.offs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(v.key(mid), target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.offs) && bytes.Equal(v.key(lo), target)
}

// childIndex picks an internal page's child subtree for key, as the
// write path's childIndex does on a decoded node.
func (v *pageView) childIndex(key []byte) int {
	i, found := v.search(key)
	if found {
		return i + 1
	}
	return i
}

// Seek positions a new iterator at the smallest key >= target, on a
// snapshot of the current committed state. The iterator's view is fixed
// at that instant: concurrent writers proceed without blocking it and
// without becoming visible to it.
func (db *DB) Seek(target []byte) *Iterator {
	it := db.OpenSnapshot().Seek(target)
	it.owned = true
	it.maybeAutoClose()
	return it
}

// First positions a new iterator at the smallest key (see Seek).
func (db *DB) First() *Iterator { return db.Seek(nil) }

// Seek positions an iterator at the smallest key >= target as of the
// snapshot's epoch. The iterator borrows the snapshot: closing is the
// caller's business, and multiple iterators may share one snapshot.
//
// Seek is small enough to inline, so an iterator a caller keeps to
// itself stays on its stack.
func (s *Snapshot) Seek(target []byte) *Iterator {
	it := &Iterator{snap: s}
	it.seek(target)
	return it
}

// seek descends from the snapshot's root to the leaf holding target.
func (it *Iterator) seek(target []byte) {
	s := it.snap
	atomic.AddInt64(&s.db.seeks, 1)
	var index [maxEntries]uint16 // stays on the stack
	id := s.root
	for {
		buf, err := s.readPage(id)
		if err != nil {
			it.err = err
			return
		}
		v := pageView{buf: buf}
		if v.offs, it.err = indexPage(buf, index[:0]); it.err != nil {
			return
		}
		if v.isLeaf() {
			i, _ := v.search(target)
			it.leaf, it.inLeaf, it.left = buf, true, len(v.offs)-i
			if i < len(v.offs) {
				it.off = int(v.offs[i])
			}
			it.settle()
			return
		}
		i := v.childIndex(target)
		if it.err = it.push(frame{buf: buf, n: len(v.offs) + 1, idx: i}); it.err != nil {
			return
		}
		id = childAt(buf, i)
	}
}

// First positions an iterator at the snapshot's smallest key.
func (s *Snapshot) First() *Iterator { return s.Seek(nil) }

// cross reads page id, which the scan enters by crossing, without
// indexing it: a leaf becomes the cursor's leaf at its first entry, an
// internal page a new frame at child 0.
func (it *Iterator) cross(id uint32) error {
	buf, err := it.snap.readPage(id)
	if err != nil {
		return err
	}
	nkeys, first, err := pageHeader(buf)
	if err != nil {
		return err
	}
	if buf[0] == pageLeaf {
		it.leaf, it.off, it.left, it.inLeaf = buf, first, nkeys, true
		return nil
	}
	return it.push(frame{buf: buf, n: nkeys + 1})
}

// push adds an internal page below the path's last.
func (it *Iterator) push(f frame) error {
	switch {
	case it.depth == maxHeight:
		return errTooDeep
	case it.depth < len(it.frames):
		it.frames[it.depth] = f
	default:
		it.deep = append(it.deep[:it.depth-len(it.frames)], f)
	}
	it.depth++
	return nil
}

// top returns the path's last internal page; the path is not empty.
func (it *Iterator) top() *frame {
	if d := it.depth - 1; d < len(it.frames) {
		return &it.frames[d]
	}
	return &it.deep[it.depth-1-len(it.frames)]
}

// entry loads the leaf entry at the cursor, checking its key-length and
// value-length fields against the image as indexPage does.
func (it *Iterator) entry() error {
	buf, off := it.leaf, it.off
	if off+2 > len(buf) {
		return fmt.Errorf("kvstore: corrupt page: entry at %d", off)
	}
	ke := off + 2 + int(binary.BigEndian.Uint16(buf[off:]))
	if ke+2 > len(buf) {
		return fmt.Errorf("kvstore: corrupt page: entry at %d key length", off)
	}
	ve := ke + 2 + int(binary.BigEndian.Uint16(buf[ke:]))
	if ve > len(buf) {
		return fmt.Errorf("kvstore: corrupt page: entry at %d value length", off)
	}
	it.key, it.val = buf[off+2:ke:ke], buf[ke+2:ve:ve]
	return nil
}

// settle loads the current entry, popping exhausted frames and crossing
// into following subtrees until it finds a leaf entry or the end.
func (it *Iterator) settle() {
	for {
		if it.inLeaf {
			if it.left > 0 {
				it.err = it.entry()
				it.valid = it.err == nil
				return
			}
			it.inLeaf = false
			if it.depth > 0 {
				it.top().idx++
			}
			continue
		}
		if it.depth == 0 {
			it.valid = false
			return
		}
		top := it.top()
		if top.idx >= top.n {
			if it.depth--; it.depth > 0 {
				it.top().idx++
			}
			continue
		}
		if it.err = it.cross(childAt(top.buf, top.idx)); it.err != nil {
			it.valid = false
			return
		}
	}
}

// maybeAutoClose releases an owned snapshot once the scan can make no
// further progress (exhausted or failed), so the common
// iterate-to-the-end pattern needs no explicit Close.
func (it *Iterator) maybeAutoClose() {
	if it.owned && (!it.valid || it.err != nil) {
		it.snap.Close() // idempotent
	}
}

// Close releases the iterator's snapshot if it owns one (iterators from
// DB.Seek / DB.First). Harmless to call more than once, or on an
// iterator that borrows a caller-managed snapshot.
func (it *Iterator) Close() {
	if it.owned {
		it.snap.Close()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid && it.err == nil }

// Err returns the first error the iterator hit.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key. The slice aliases the immutable page
// image: it stays valid after Next, but retaining it pins the page, and
// it must never be written to.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (aliasing rules as for Key).
func (it *Iterator) Value() []byte { return it.val }

// Next advances to the following key.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	// A valid position is always inside a leaf: step past its entry.
	it.off += 4 + len(it.key) + len(it.val)
	it.left--
	it.valid = false
	it.settle()
	it.maybeAutoClose()
}

// Ascend calls fn for every key in [start, end) in order; a nil end means
// "to the last key". fn returning false stops the scan. The whole scan
// runs on one snapshot, so it sees a consistent tree even with
// concurrent writers — without blocking them; fn must not mutate the
// store (a mutation would simply not be seen, but the restriction keeps
// the contract obvious). The k/v slices alias immutable page images:
// copy before retaining to avoid pinning pages.
func (db *DB) Ascend(start, end []byte, fn func(k, v []byte) bool) error {
	s := db.OpenSnapshot()
	defer s.Close()
	return s.Ascend(start, end, fn)
}

// Ascend calls fn for every key in [start, end) as of the snapshot's
// epoch (see DB.Ascend).
func (s *Snapshot) Ascend(start, end []byte, fn func(k, v []byte) bool) error {
	it := s.Seek(start)
	for it.Valid() {
		if end != nil && bytes.Compare(it.Key(), end) >= 0 {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return it.Err()
}

// AscendPrefix calls fn for every key with the given prefix, in order,
// on one snapshot (see Ascend).
func (db *DB) AscendPrefix(prefix []byte, fn func(k, v []byte) bool) error {
	s := db.OpenSnapshot()
	defer s.Close()
	return s.AscendPrefix(prefix, fn)
}

// HasPrefix reports whether any key starts with prefix. It reads the
// pages on its way without filling the buffer pool, so a check a store
// makes as it opens leaves a cold store cold.
func (db *DB) HasPrefix(prefix []byte) (bool, error) {
	s := db.OpenSnapshot()
	defer s.Close()
	s.peek = true
	it := s.Seek(prefix)
	return it.Valid() && bytes.HasPrefix(it.Key(), prefix), it.Err()
}

// AscendPrefix calls fn for every key with the given prefix as of the
// snapshot's epoch.
func (s *Snapshot) AscendPrefix(prefix []byte, fn func(k, v []byte) bool) error {
	it := s.Seek(prefix)
	for it.Valid() {
		if !bytes.HasPrefix(it.Key(), prefix) {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return it.Err()
}
