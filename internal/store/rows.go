package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"xmorph/internal/kvstore"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// The AdornedShapes table holds a document's shape as one row per parent
// type, so an update reads and writes only the rows of the parents it
// touched:
//
//	'A' docID parentTypeID chunk -> the parent's child edges in sibling
//	                                order: (child typeID, min, max) uvarints
//	'A' docID rootsRow chunk     -> the root typeIDs, uvarints
//
// Rows are chunked like every other record (appendChunks), and a leaf
// type has none. The shape hash ('H') is the sum mod 2^64 of the rows'
// hashes (rowHash), each taken over type names rather than typeIDs, so a
// document's hash is the same whether an update or a re-shred numbered
// its types.

// rootsRow is the parent typeID of the row listing the roots. A registry
// index never reaches it.
const rootsRow = math.MaxUint32

// rowEdge is one entry of a row: a child type and its edge's card (a
// root's card is unused).
type rowEdge struct {
	tid  uint32
	card shape.Card
}

// rowPrefix is the key prefix of every row of a document.
func rowPrefix(docID uint32) []byte { return blobKey('A', docID) }

// rowKey is the key of a row without its chunk index.
func rowKey(docID, ptid uint32) []byte {
	return binary.BigEndian.AppendUint32(rowPrefix(docID), ptid)
}

// rowKeyLen is the length of a row record's key: 'A', docID, parent
// typeID, chunk index.
const rowKeyLen = 1 + 4 + 4 + nodeKeyChunk

// appendRow appends a row's value to dst.
func appendRow(dst []byte, ptid uint32, row []rowEdge) []byte {
	for _, e := range row {
		dst = binary.AppendUvarint(dst, uint64(e.tid))
		if ptid != rootsRow {
			dst = binary.AppendUvarint(dst, uint64(e.card.Min))
			dst = binary.AppendUvarint(dst, uint64(e.card.Max))
		}
	}
	return dst
}

// decodeRow appends the entries of a row's value to dst. Every typeID
// must name a type of a registry of n types.
func decodeRow(dst []rowEdge, ptid uint32, val []byte, n int) ([]rowEdge, error) {
	next := func() (uint64, bool) {
		x, k := binary.Uvarint(val)
		if k <= 0 {
			return 0, false
		}
		val = val[k:]
		return x, true
	}
	for len(val) > 0 {
		var e rowEdge
		tid, ok := next()
		if !ok || tid >= uint64(n) {
			return dst, fmt.Errorf("%w: shape row %d: bad child typeID", ErrStorage, ptid)
		}
		e.tid = uint32(tid)
		if ptid != rootsRow {
			min, ok1 := next()
			max, ok2 := next()
			if !ok1 || !ok2 || min > max || max > math.MaxInt32 {
				return dst, fmt.Errorf("%w: shape row %d: bad card", ErrStorage, ptid)
			}
			e.card = shape.Card{Min: int(min), Max: int(max)}
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// FNV-1a, inline: the shape hash folds names and cards into one running
// value without a hash.Hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUvarint(h uint64, x int) uint64 {
	var b [binary.MaxVarintLen64]byte
	for _, c := range binary.AppendUvarint(b[:0], uint64(x)) {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// rootHash is one root's share of the shape hash. Roots hash one by one
// because a shape orders them by name, not as its roots row lists them;
// the leading 0 byte keeps a root's hash apart from a parent row's.
func rootHash(root string) uint64 { return fnvString(fnvString(fnvOffset, "\x00"), root) }

// edgeHash folds one child edge of a parent row into the row's running
// hash, which starts as fnvString(fnvOffset, parent): the child's name,
// a 0 byte, and its card.
func edgeHash(h uint64, child string, c shape.Card) uint64 {
	h = fnvString(fnvString(h, "\x00"), child)
	return fnvUvarint(fnvUvarint(fnvString(h, "\x00"), c.Min), c.Max)
}

// rowHash is a stored row's share of the shape hash, naming its types
// through the registry.
func rowHash(types []string, ptid uint32, row []rowEdge) uint64 {
	var h uint64
	if ptid == rootsRow {
		for _, e := range row {
			h += rootHash(types[e.tid])
		}
		return h
	}
	h = fnvString(fnvOffset, types[ptid])
	for _, e := range row {
		h = edgeHash(h, types[e.tid], e.card)
	}
	return h
}

// HashShape returns the shape hash of a shape: the sum mod 2^64 of the
// FNV-1a hashes of its rows — each parent with its children's names and
// cards in sibling order, and each root — which is what the store keeps
// in a document's hash record. Equal hashes ⇒ identical shapes (modulo
// hash collisions), sibling order included, so guard caches can key
// compilations on (docID, shape hash) and survive shape-preserving
// updates.
func HashShape(sh *shape.Shape) uint64 {
	var h uint64
	for _, t := range sh.Types() {
		if _, ok := sh.Parent(t); !ok {
			h += rootHash(t)
		}
		if kids := sh.Children(t); len(kids) > 0 {
			rh := fnvString(fnvOffset, t)
			for _, k := range kids {
				c, _ := sh.Card(t, k)
				rh = edgeHash(rh, k, c)
			}
			h += rh
		}
	}
	return h
}

// appendShapeRows appends the rows of a folded shape to arena and recs —
// the parent rows in typeID order, then the roots row — and returns the
// shape hash. Every folded type must be in the registry.
func appendShapeRows(arena []byte, recs []chunk, id uint32, reg *typeRegistry, f *shape.Fold) ([]byte, []chunk, uint64, error) {
	rows := make([][]rowEdge, len(reg.types))
	var roots []rowEdge
	f.Walk(func(t, parent string, card shape.Card) {
		if parent == "" {
			roots = append(roots, rowEdge{tid: reg.typeID[t]})
			return
		}
		p := reg.typeID[parent]
		rows[p] = append(rows[p], rowEdge{reg.typeID[t], card})
	})
	slices.SortFunc(roots, func(a, b rowEdge) int { return int(a.tid) - int(b.tid) })
	var h uint64
	var val []byte
	var err error
	for ptid, row := range rows {
		if len(row) == 0 {
			continue
		}
		h += rowHash(reg.types, uint32(ptid), row)
		val = appendRow(val[:0], uint32(ptid), row)
		if arena, recs, err = appendChunks(arena, recs, rowKey(id, uint32(ptid)), val); err != nil {
			return arena, recs, 0, err
		}
	}
	h += rowHash(reg.types, rootsRow, roots)
	arena, recs, err = appendChunks(arena, recs, rowKey(id, rootsRow), appendRow(val[:0], rootsRow, roots))
	return arena, recs, h, err
}

// scanRows calls fn with each row of a document, in key order — parent
// rows by typeID, then the roots row — its chunks reassembled. The value
// is valid only until fn returns. A malformed key or a broken chunk
// chain is an ErrStorage error.
func scanRows(r reader, id uint32, fn func(ptid uint32, val []byte) error) error {
	var (
		buf        []byte
		cur        uint32
		next, want int // the chunk expected next, and the row's chunk count
		err        error
	)
	corrupt := func(format string, args ...any) bool {
		err = fmt.Errorf("%w: shape row: "+format, append([]any{ErrStorage}, args...)...)
		return false
	}
	if serr := r.AscendPrefix(rowPrefix(id), func(k, v []byte) bool {
		if len(k) != rowKeyLen {
			return corrupt("bad key %x", k)
		}
		ptid := binary.BigEndian.Uint32(k[5:])
		c := int(binary.BigEndian.Uint16(k[9:]))
		if next < want {
			if ptid != cur || c != next {
				return corrupt("row %d: chunk %d of %d missing", cur, next, want)
			}
			buf = append(buf, v...)
			next++
		} else {
			if c != 0 || len(v) < 2 || binary.BigEndian.Uint16(v) == 0 {
				return corrupt("row %d: bad first chunk", ptid)
			}
			cur, next, want = ptid, 1, int(binary.BigEndian.Uint16(v))
			buf = append(buf[:0], v[2:]...)
		}
		if next == want {
			if err = fn(cur, buf); err != nil {
				return false
			}
		}
		return true
	}); serr != nil {
		return serr
	}
	if err == nil && next < want {
		corrupt("row %d: chunk %d of %d missing", cur, next, want)
	}
	return err
}

// loadShape builds a document's shape from its rows in one prefix scan.
// Each type a row lists becomes a shape type, numbered in scan order — a
// parent's children share its row, so they keep their sibling order —
// and named through the registry; its parent's shape id is looked up by
// registry id once every row is in. Rows that do not describe a forest
// of the registry's rooted type paths — a child filed under another
// parent than its path's, a root with a parent, a type listed twice, a
// row for a type no row lists, no roots row — are an ErrStorage error.
func loadShape(r reader, id uint32, types []string) (*shape.Shape, error) {
	// sid maps a registry id to its shape id once a row lists the type;
	// before that it is unseen, or onlyParent when a row has it as parent.
	const unseen, onlyParent = -1, -2
	sid := make([]int, len(types))
	for i := range sid {
		sid[i] = unseen
	}
	names := make([]string, 0, len(types))
	ptids := make([]uint32, 0, len(types)) // each shape type's parent's registry id
	into := make([]shape.Card, 0, len(types))
	roots, edges, seen := -1, 0, 0
	list := func(tid, ptid uint32, c shape.Card) {
		switch sid[tid] {
		case unseen:
			seen++
		case onlyParent:
		default:
			return // listed twice: the count below refuses the rows
		}
		sid[tid] = len(names)
		names = append(names, types[tid])
		ptids = append(ptids, ptid)
		into = append(into, c)
	}
	var row []rowEdge
	err := scanRows(r, id, func(ptid uint32, val []byte) error {
		var err error
		if row, err = decodeRow(row[:0], ptid, val, len(types)); err != nil {
			return err
		}
		if ptid == rootsRow {
			roots = len(row)
			for _, e := range row {
				if t := types[e.tid]; xmltree.TypeParent(t) != "" {
					return fmt.Errorf("%w: shape row: root %s has a parent type", ErrStorage, t)
				}
				list(e.tid, rootsRow, shape.One)
			}
			return nil
		}
		if int(ptid) >= len(types) {
			return fmt.Errorf("%w: shape row: parent typeID %d out of range", ErrStorage, ptid)
		}
		if sid[ptid] == unseen {
			sid[ptid] = onlyParent
			seen++
		}
		for _, e := range row {
			if c := types[e.tid]; xmltree.TypeParent(c) != types[ptid] {
				return fmt.Errorf("%w: shape row: %s filed under %s", ErrStorage, c, types[ptid])
			}
			list(e.tid, ptid, e.card)
		}
		edges += len(row)
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case roots < 0:
		return nil, fmt.Errorf("%w: document %d has no roots row", ErrStorage, id)
	case seen != roots+edges:
		// Every type is a root or the child of one edge exactly when no
		// type is listed twice and every row's parent is listed.
		return nil, fmt.Errorf("%w: shape rows of document %d list %d roots and %d edges over %d types",
			ErrStorage, id, roots, edges, seen)
	}
	parent := make([]int, len(names))
	for i, p := range ptids {
		parent[i] = -1
		if p != rootsRow {
			parent[i] = sid[p]
		}
	}
	sh, err := shape.FromParents(names, parent, into)
	if err != nil {
		return nil, fmt.Errorf("%w: shape row: %v", ErrStorage, err)
	}
	return sh, nil
}

// shapeHashIn reads a document's shape hash record through r.
func shapeHashIn(r reader, id uint32) (uint64, error) {
	b, ok, err := r.Get(blobKey('H', id))
	if err != nil {
		return 0, err
	}
	if !ok || len(b) != 8 {
		return 0, fmt.Errorf("%w: document %d has no valid shape hash record", ErrStorage, id)
	}
	return binary.BigEndian.Uint64(b), nil
}

// ShapeHash returns the document's stored shape hash as of the view; ok
// is false when the view holds no document of that name.
func (v *View) ShapeHash(name string) (uint64, bool, error) {
	id, ok, err := docIDIn(v.snap, name)
	if err != nil || !ok {
		return 0, false, err
	}
	h, err := shapeHashIn(v.snap, id)
	return h, err == nil, err
}

// convertShapes rewrites the documents of a store written before the
// shape became rows — each holding its shape as a chunked text record,
// 'S' docID chunk, and the oldest of them no hash record — into rows and
// a hash record. Each document's rows come from folding its Walk, the
// fold its shred ran, so the text is never parsed. The whole
// conversion is one transaction: a crash leaves the store in the old
// format or the new one, and the next Open converts what is left. A store
// with no 'S' record is neither written nor left with pages in its pool.
func (s *Store) convertShapes() error {
	if legacy, err := s.db.HasPrefix([]byte{'S'}); err != nil || !legacy {
		return err
	}
	return s.commit(func() error {
		v := s.View()
		defer v.Close()
		var ids []uint32
		if err := v.snap.AscendPrefix([]byte{'D'}, func(k, val []byte) bool {
			if len(val) == 4 {
				ids = append(ids, binary.BigEndian.Uint32(val))
			}
			return true
		}); err != nil {
			return err
		}
		slices.Sort(ids)
		var b kvstore.Batch
		for _, id := range ids {
			legacy := false
			if err := v.snap.AscendPrefix(blobKey('S', id), func(k, val []byte) bool {
				legacy = true
				return false
			}); err != nil {
				return err
			}
			if !legacy {
				continue
			}
			types, err := typesIn(v.snap, id)
			if err != nil {
				return err
			}
			reg := newTypeRegistry(types)
			var fh foldHandler
			if err := (&Doc{typeRegistry: reg, r: v.snap, id: id}).Walk(&fh); err != nil {
				return err
			}
			arena, recs, h, err := appendShapeRows(nil, nil, id, reg, &fh.f)
			if err != nil {
				return err
			}
			keys, vals := appendRecords(nil, nil, arena, recs)
			for i := range keys {
				b.Put(keys[i], vals[i])
			}
			b.Put(blobKey('H', id), binary.BigEndian.AppendUint64(nil, h))
		}
		if err := v.snap.AscendPrefix([]byte{'S'}, func(k, val []byte) bool {
			b.Delete(append([]byte(nil), k...))
			return true
		}); err != nil {
			return err
		}
		return s.db.Apply(&b)
	})
}

// foldHandler folds the nodes of a Walk as the shred did, keeping the
// type path of each open element to name its children's types.
type foldHandler struct {
	f    shape.Fold
	path []string
}

func (h *foldHandler) Start(name string) {
	h.path = append(h.path, h.child(name))
	h.f.Open(h.path[len(h.path)-1])
}

func (h *foldHandler) Attr(name string, _ []byte) {
	h.f.Open(h.child("@" + name))
	h.f.Close()
}

func (h *foldHandler) End() {
	h.f.Close()
	h.path = h.path[:len(h.path)-1]
}

func (h *foldHandler) Text([]byte) {}
func (h *foldHandler) Err() error  { return nil }

// child is the type of the open element's child named name.
func (h *foldHandler) child(name string) string {
	if len(h.path) == 0 {
		return name
	}
	return h.path[len(h.path)-1] + xmltree.TypeSep + name
}
