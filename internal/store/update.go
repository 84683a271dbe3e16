package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"xmorph/internal/kvstore"
	"xmorph/internal/obs"
	"xmorph/internal/shape"
	"xmorph/internal/update"
	"xmorph/internal/xmltree"
)

// UpdateInfo summarizes an applied update script.
type UpdateInfo struct {
	Name          string
	Ops           int
	NodesInserted int
	NodesDeleted  int
	PagesWritten  int64
	// Delta reports how the script moved the document's shape —
	// unchanged deltas leave shape-hash-keyed guard caches warm.
	Delta update.Delta
}

// Update applies a parsed update script to a shredded document by
// re-shredding only the dirty subtrees: deleted Dewey ranges and
// freshly shredded fragments accumulate in a write overlay (phase 1,
// reads through one pinned view, nothing written on error), then the
// whole overlay commits as one kvstore transaction (phase 2). A reader
// sees the old document or the new one, never a state between, and a
// crash recovers to one of the two. Sibling slots reuse Dewey gaps when
// one exists and fall back to suffix re-keying of the following sibling
// subtrees; component values never matter to joins or rendering, only
// order.
//
// The touched-subtree shape is re-inferred exactly (per-instance child
// counts and first-instance sibling order, the same rules the shredder
// folds), so the stored shape, its hash record, and the returned Delta
// always match what a full re-shred of the edited document would have
// produced. An edit that keeps the shape writes only its own keys: the
// shape and hash records are rewritten only when the shape changed, and
// the type registry only when the script entered a new type. The
// document keeps its docID: version-keyed caches stay valid, and
// shape-aware ones invalidate only on a real shape change.
//
// Both phases run under the store's writer lock, the view opened after
// the lock is taken: concurrent Updates of one document apply one after
// the other, each to the document the previous one left, and none of
// them interleaves with a Drop or a re-shred of it.
func (s *Store) Update(name string, ops []update.Op, parent *obs.Span) (*UpdateInfo, error) {
	sp := parent.Child("update")
	defer sp.End()
	before := s.Stats()

	var u *updater
	if err := s.commit(func() (err error) {
		u, err = s.update(name, ops)
		return err
	}); err != nil {
		return nil, err
	}
	info := &UpdateInfo{
		Name:          name,
		Ops:           len(ops),
		NodesInserted: u.inserted,
		NodesDeleted:  u.deleted,
		Delta:         u.delta,
	}
	after := s.Stats()
	info.PagesWritten = after.BlocksWritten - before.BlocksWritten
	if sp != nil {
		sp.Set("ops", int64(len(ops)))
		sp.Set("nodes-inserted", int64(u.inserted))
		sp.Set("nodes-deleted", int64(u.deleted))
		sp.Set("keys-put", int64(u.keysPut))
		sp.Set("keys-deleted", int64(u.keysDeleted))
		sp.Set("pages-written", info.PagesWritten)
		sp.SetStr("shape-delta", u.delta.Kind.String())
	}
	return info, nil
}

// update is Update's read-check-write (writeMu held): it builds the
// overlay on a view of the latest commit and applies it.
func (s *Store) update(name string, ops []update.Op) (*updater, error) {
	v := s.View()
	defer v.Close()
	id, err := docIDOf(v.snap, name)
	if err != nil {
		return nil, err
	}
	types, err := typesIn(v.snap, id)
	if err != nil {
		return nil, err
	}
	u := &updater{
		base:         v.snap,
		id:           id,
		typeRegistry: newTypeRegistry(types),
		oldTypes:     len(types),
		touched:      map[string]bool{},
		rows:         map[uint32][]rowEdge{},
	}

	for i, op := range ops {
		if err := u.apply(op); err != nil {
			return nil, fmt.Errorf("store: update statement %d: %w", i+1, err)
		}
	}

	// Only the rows the recount changed are rewritten, with the hash
	// record, and the registry, which only ever gains types, only when
	// the script entered one.
	if err := u.recount(); err != nil {
		return nil, err
	}
	if err := u.rewriteRows(); err != nil {
		return nil, err
	}
	if len(u.types) > len(types) {
		if err := u.rewriteBlob(blobKey('T', id), []byte(strings.Join(u.types, "\n"))); err != nil {
			return nil, err
		}
	}

	// Phase 2: the overlay commits as one transaction, its deletes and its
	// puts each in the key order the overlay holds them in.
	var b kvstore.Batch
	c := u.pending.seek(nil)
	for rec, ok := c.next(); ok; rec, ok = c.next() {
		if rec.vl == tombstone {
			b.Delete(u.pending.key(rec))
			u.keysDeleted++
		} else {
			b.Put(u.pending.key(rec), u.pending.val(rec))
			u.keysPut++
		}
	}
	return u, s.db.Apply(&b)
}

// updater accumulates an update script's effect as an overlay over one
// pinned snapshot: reads merge the overlay with the base so sequential
// statements observe earlier ones, and nothing reaches the store until
// the overlay commits wholesale.
type updater struct {
	*typeRegistry
	base     reader
	id       uint32
	oldTypes int // the registry's length before the script
	pending  overlay
	touched  map[string]bool
	// rows holds the shape rows the recount read, as they were before
	// the script, by parent typeID: the touched types' own and their
	// parents'. A row absent from the store is empty.
	rows map[uint32][]rowEdge
	// seqs holds, during the recount, the live Dewey numbers of every type
	// it has read, so that it reads no sequence twice.
	seqs map[string][]byte
	// live and edges are the recount of the touched types: whether each
	// still has instances, and each live one's edges to its children.
	live     map[string]bool
	edges    map[string][]childEdge
	delta    update.Delta // the old shape to the recounted one
	inserted int
	deleted  int
	// keysPut and keysDeleted count the committed batch's puts and
	// deletes.
	keysPut     int
	keysDeleted int
}

func (u *updater) touch(t string) {
	if t != "" {
		u.touched[t] = true
	}
}

// scanPrefix iterates base ∪ overlay in key order, skipping overlay
// deletions and preferring overlay values. fn may write to the overlay;
// the scan does not see those writes.
func (u *updater) scanPrefix(prefix []byte, fn func(k, v []byte) bool) error {
	o := &u.pending
	c := o.seek(prefix)
	rec, ok := c.next()
	stopped := false
	err := u.base.AscendPrefix(prefix, func(k, v []byte) bool {
		for ok {
			order := bytes.Compare(o.key(rec), k)
			if order > 0 {
				break
			}
			if rec.vl != tombstone && !fn(o.key(rec), o.val(rec)) {
				stopped = true
				return false
			}
			rec, ok = c.next()
			if order == 0 {
				return true // the overlay's record replaces the base's
			}
		}
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	})
	for ; ok && err == nil && !stopped; rec, ok = c.next() {
		if rec.vl != tombstone && !fn(o.key(rec), o.val(rec)) {
			break
		}
	}
	return err
}

func (u *updater) apply(op update.Op) error {
	switch op.Kind {
	case update.Delete:
		return u.applyDelete(op)
	case update.Insert:
		return u.applyInsert(op)
	default:
		return u.applyReplace(op)
	}
}

func lastSegment(path string) string {
	return path[strings.LastIndex(path, xmltree.TypeSep)+1:]
}

// instances returns a type's live Dewey numbers in document order, each
// encoded as in its node keys (four bytes a level), back to back.
func (u *updater) instances(t string) ([]byte, error) {
	if enc, ok := u.seqs[t]; ok {
		return enc, nil
	}
	tid, ok := u.typeID[t]
	if !ok {
		return nil, nil
	}
	size := xmltree.KeySize(xmltree.TypeDepth(t))
	var out []byte
	err := u.scanPrefix(u.under(tid, nil), func(k, v []byte) bool {
		if enc, chunk, ok := splitNodeKey(k); ok && chunk == 0 && len(enc) == size {
			out = append(out, enc...)
		}
		return true
	})
	if u.seqs != nil {
		u.seqs[t] = out
	}
	return out, err
}

// targets resolves a statement's path to its node set, requiring it to
// be non-empty: each node's encoded Dewey number, in document order.
func (u *updater) targets(path string) ([][]byte, error) {
	enc, err := u.instances(path)
	if err != nil {
		return nil, err
	}
	if len(enc) == 0 {
		return nil, fmt.Errorf("path %q resolves to no nodes", path)
	}
	size := xmltree.KeySize(xmltree.TypeDepth(path))
	ds := make([][]byte, 0, len(enc)/size)
	for at := 0; at < len(enc); at += size {
		ds = append(ds, enc[at:at+size:at+size])
	}
	return ds, nil
}

// below returns the typeIDs of the types under type t, in typeID order:
// its children, or with all set every descendant.
func (u *updater) below(t string, all bool) []uint32 {
	sub := t + xmltree.TypeSep
	var out []uint32
	for tid, s := range u.types {
		if strings.HasPrefix(s, sub) && (all || !strings.Contains(s[len(sub):], xmltree.TypeSep)) {
			out = append(out, uint32(tid))
		}
	}
	return out
}

// under returns the key prefix of the records of type tid at or below
// the node whose encoded Dewey number is d; with no d, of the type's
// whole sequence.
func (u *updater) under(tid uint32, d []byte) []byte {
	return append(appendNodePrefix(make([]byte, 0, nodeKeyHead+len(d)+xmltree.KeyLevelBytes+nodeKeyChunk), u.id, tid, nil), d...)
}

func (u *updater) applyDelete(op update.Op) error {
	if xmltree.TypeParent(op.Path) == "" {
		return fmt.Errorf("cannot delete the document root %q", op.Path)
	}
	n, err := u.deleteAll(op.Path)
	if err == nil && n == 0 {
		err = fmt.Errorf("path %q resolves to no nodes", op.Path)
	}
	u.touch(xmltree.TypeParent(op.Path))
	return err
}

// deleteAll removes every node of type rootT — a statement's targets are
// all of them — with its subtree: each descendant-or-self type's whole
// sequence, one pass apiece, as every node of a descendant type lies
// below a node of rootT. Sibling ordinals keep their gaps — only order
// matters. It returns how many nodes of rootT it removed.
func (u *updater) deleteAll(rootT string) (int, error) {
	tids := u.below(rootT, true)
	root, ok := u.typeID[rootT]
	if ok {
		tids = append(tids, root)
	}
	roots := 0
	for _, tid := range tids {
		nodes, keys := 0, 0
		if err := u.scanPrefix(u.under(tid, nil), func(k, v []byte) bool {
			if _, chunk, _ := splitNodeKey(k); chunk == 0 {
				nodes++
			}
			keys++
			u.pending.del(k)
			return true
		}); err != nil {
			return 0, err
		}
		u.deleted += nodes
		if keys > 0 {
			u.touch(u.types[tid])
		}
		if ok && tid == root {
			roots = nodes
		}
	}
	return roots, nil
}

func (u *updater) applyInsert(op update.Op) error {
	if strings.HasPrefix(lastSegment(op.Path), "@") {
		return fmt.Errorf("cannot insert %s attribute path %q", op.Pos, op.Path)
	}
	if op.Pos == update.Into {
		frag := u.fragment(op.XML, op.Path)
		ds, err := u.targets(op.Path)
		if err != nil {
			return err
		}
		kids := u.below(op.Path, false)
		for _, d := range ds {
			ords, err := u.childOrds(kids, d)
			if err != nil {
				return err
			}
			last := 0
			if len(ords) > 0 {
				last = ords[len(ords)-1]
			}
			if err := frag.insert(d, last+1); err != nil {
				return err
			}
		}
		return nil
	}

	parent := xmltree.TypeParent(op.Path)
	if parent == "" {
		return fmt.Errorf("cannot insert beside the document root %q", op.Path)
	}
	frag := u.fragment(op.XML, parent)
	ds, err := u.targets(op.Path)
	if err != nil {
		return err
	}
	var kids, desc []uint32
	types := -1
	// Descending document order: when a slot needs suffix re-keying, the
	// shift only moves ordinals at or after the slot, so pending targets
	// (all earlier in document order) keep their Dewey numbers.
	for i := len(ds) - 1; i >= 0; i-- {
		if types != len(u.types) {
			// Targets can share a parent, below which the first insert may
			// have entered the fragment's types.
			kids, desc, types = u.below(parent, false), u.below(parent, true), len(u.types)
		}
		d := ds[i]
		pd := d[:len(d)-xmltree.KeyLevelBytes]
		k := xmltree.KeyLevel(d, xmltree.KeyDepth(pd))
		ords, err := u.childOrds(kids, pd)
		if err != nil {
			return err
		}
		var ord int
		if op.Pos == update.Before {
			l := 0
			for _, o := range ords {
				if o < k && o > l {
					l = o
				}
			}
			if k-l >= 2 {
				ord = l + (k-l)/2
			} else {
				if err := u.shiftSiblings(desc, pd, k); err != nil {
					return err
				}
				ord = k
			}
		} else {
			r := 0
			for _, o := range ords {
				if o > k {
					r = o
					break
				}
			}
			switch {
			case r == 0:
				ord = k + 1
			case r-k >= 2:
				ord = k + (r-k)/2
			default:
				if err := u.shiftSiblings(desc, pd, r); err != nil {
					return err
				}
				ord = r
			}
		}
		if err := frag.insert(pd, ord); err != nil {
			return err
		}
	}
	return nil
}

func (u *updater) applyReplace(op update.Op) error {
	if strings.HasPrefix(lastSegment(op.Path), "@") {
		return fmt.Errorf("cannot replace attribute path %q with an element fragment", op.Path)
	}
	frag := u.fragment(op.XML, xmltree.TypeParent(op.Path))
	ds, err := u.targets(op.Path)
	if err != nil {
		return err
	}
	if _, err := u.deleteAll(op.Path); err != nil {
		return err
	}
	// A fragment takes each vacated slot: same parent, same ordinal.
	for _, d := range ds {
		pd := d[:len(d)-xmltree.KeyLevelBytes]
		if err := frag.insert(pd, xmltree.KeyLevel(d, xmltree.KeyDepth(pd))); err != nil {
			return err
		}
	}
	return nil
}

// childOrds returns the sorted distinct child ordinals in use under the
// node whose encoded Dewey number is d, kids being its type's child
// types.
func (u *updater) childOrds(kids []uint32, d []byte) ([]int, error) {
	var out []int
	for _, tid := range kids {
		if err := u.scanPrefix(u.under(tid, d), func(k, v []byte) bool {
			if enc, _, ok := splitNodeKey(k); ok && len(enc) == len(d)+xmltree.KeyLevelBytes {
				out = append(out, xmltree.KeyLevel(enc, xmltree.KeyDepth(d)))
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// shiftSiblings suffix-re-keys every child subtree of the node whose
// encoded Dewey number is pd whose child ordinal is >= from, moving each
// ordinal up by one; desc are the typeIDs of every type below the node's.
// Values move verbatim; relative order is preserved, so the shape is
// unaffected.
func (u *updater) shiftSiblings(desc []uint32, pd []byte, from int) error {
	level := xmltree.KeyDepth(pd)
	type move struct{ key, val []byte }
	var news []move
	// Every old key is deleted before any new one is written: the two key
	// sets overlap when consecutive ordinals shift, and the overlay keeps
	// each key's last write.
	for _, tid := range desc {
		if err := u.scanPrefix(u.under(tid, pd), func(k, v []byte) bool {
			enc, _, _ := splitNodeKey(k)
			if c := xmltree.KeyLevel(enc, level); c >= from {
				news = append(news, move{withOrdinal(k, level, c+1), append([]byte(nil), v...)})
				u.pending.del(k)
			}
			return true
		}); err != nil {
			return err
		}
	}
	for _, m := range news {
		u.pending.put(m.key, m.val)
	}
	return nil
}

// fragment is a statement's fragment, shredded at each of its targets
// in turn, every time from a scan of its source, by one shredder that
// keeps the type paths it has built.
//
// On the first shred the fragment itself is the scan's handler: it
// enters each type, re-rooted below the statement's parent type, into
// the registry on first sight and marks it touched, then passes the
// event on. The types thus enter in the scan's event order, elements
// ahead of their attributes — the numbering updates have always used,
// where a shred numbers a type when its first record is written — and
// before the shredder writes a record of them.
type fragment struct {
	u       *updater
	src     string
	sh      *shredder
	entered bool // the first shred has run
}

func (u *updater) fragment(src, parentT string) *fragment {
	u.touch(parentT)
	return &fragment{u: u, src: src, sh: newShredder(u.id, u.typeRegistry, func(_ uint32, key, value []byte) error {
		return u.pending.putChunks(key, value)
	}, parentT, nil, 1)}
}

// insert shreds the fragment under the node whose encoded Dewey number
// is pd, rooting it at child ordinal ord, with the overlay as the
// shredder's output.
func (f *fragment) insert(pd []byte, ord int) error {
	f.sh.reroot(pd, ord)
	var h xmltree.Handler = f.sh
	if !f.entered {
		h, f.entered = f, true
	}
	nodes := f.sh.nodes
	err := xmltree.Scan(strings.NewReader(f.src), h)
	f.u.inserted += f.sh.nodes - nodes
	return err
}

func (f *fragment) Start(name string) {
	f.enter(f.sh.child(f.sh.open[len(f.sh.open)-1].typ, name, false))
	f.sh.Start(name)
}

func (f *fragment) Attr(name string, value []byte) {
	f.enter(f.sh.child(f.sh.open[len(f.sh.open)-1].typ, name, true))
	f.sh.Attr(name, value)
}

func (f *fragment) Text(b []byte) { f.sh.Text(b) }
func (f *fragment) End()          { f.sh.End() }
func (f *fragment) Err() error    { return f.sh.Err() }

func (f *fragment) enter(typ int32) {
	if t := &f.sh.paths[typ]; !t.registered {
		t.tid, t.registered = f.u.register(t.path), true
		f.u.touch(t.path)
	}
}

// recount re-infers what the edit can have changed in the shape: for
// each touched type whether it still has instances, and for each touched
// live parent its edges, with per-instance child cardinalities counted
// by merging the Dewey-ordered sequences and children ordered by first-
// instance Dewey — the same rules shape.Fold applies during a shred.
// Untouched types keep their instance sets and child orders, so the old
// rows answer for them (isLive): it reads the rows of the touched types
// and of their parents, and no other.
func (u *updater) recount() error {
	for t := range u.touched {
		if err := u.readRow(u.listingRow(t)); err != nil {
			return err
		}
		if err := u.readRow(u.typeID[t]); err != nil {
			return err
		}
	}
	u.seqs = map[string][]byte{}
	u.live = make(map[string]bool, len(u.touched))
	for t := range u.touched {
		enc, err := u.instances(t)
		if err != nil {
			return err
		}
		u.live[t] = len(enc) > 0
	}
	u.edges = make(map[string][]childEdge, len(u.touched))
	for t, ok := range u.live {
		if !ok {
			continue
		}
		edges, err := u.computeEdges(t)
		if err != nil {
			return err
		}
		u.edges[t] = edges
	}
	return nil
}

// listingRow returns the typeID of the row that lists type t: its
// parent's row, or the roots row.
func (u *updater) listingRow(t string) uint32 {
	if p := xmltree.TypeParent(t); p != "" {
		return u.typeID[p]
	}
	return rootsRow
}

// readRow reads the old row of a parent typeID into u.rows, once. A type
// the script entered has none.
func (u *updater) readRow(ptid uint32) error {
	if _, ok := u.rows[ptid]; ok || ptid != rootsRow && int(ptid) >= u.oldTypes {
		return nil
	}
	val, ok, err := getBlob(u.base, rowKey(u.id, ptid))
	var row []rowEdge
	if err == nil && ok {
		row, err = decodeRow(nil, ptid, val, u.oldTypes)
	}
	u.rows[ptid] = row
	return err
}

// isLive reports whether type t has instances after the edit.
func (u *updater) isLive(t string) bool {
	if ok, touched := u.live[t]; touched {
		return ok
	}
	tid, ok := u.typeID[t]
	return ok && slices.ContainsFunc(u.rows[u.listingRow(t)], func(e rowEdge) bool { return e.tid == tid })
}

// newRow returns a row as the edit leaves it: a touched parent's from
// its recount, another's (the roots row included) as its old row less
// the children that lost their last instance, plus, for the roots row,
// any touched root that gained its first.
func (u *updater) newRow(ptid uint32) []rowEdge {
	if ptid != rootsRow {
		if pt := u.types[ptid]; u.touched[pt] {
			var row []rowEdge
			for _, e := range u.edges[pt] {
				row = append(row, rowEdge{u.typeID[e.child], e.card})
			}
			return row
		}
	}
	var row []rowEdge
	for _, e := range u.rows[ptid] {
		if u.isLive(u.types[e.tid]) {
			row = append(row, e)
		}
	}
	if ptid == rootsRow {
		for t, ok := range u.live {
			tid := u.typeID[t]
			if ok && xmltree.TypeParent(t) == "" && !slices.Contains(row, rowEdge{tid: tid}) {
				row = append(row, rowEdge{tid: tid})
			}
		}
		slices.SortFunc(row, func(a, b rowEdge) int { return int(a.tid) - int(b.tid) })
	}
	return row
}

// rewriteRows writes the rows the edit changed — of the touched types,
// and of the rows that list them — and moves the hash record by the
// changed rows' hashes, old out and new in, so it stays the sum a shred
// of the edited document writes. It computes the delta from the same
// rows. An edit that keeps the shape changes no row and writes nothing.
func (u *updater) rewriteRows() error {
	affected := make(map[uint32]bool, 2*len(u.touched))
	for t := range u.touched {
		affected[u.typeID[t]] = true
		affected[u.listingRow(t)] = true
	}
	var changes []update.RowChange
	var move uint64 // added to the hash, mod 2^64
	for ptid := range affected {
		old, row := u.rows[ptid], u.newRow(ptid)
		if slices.Equal(old, row) {
			continue
		}
		changes = append(changes, update.RowChange{Parent: u.parentName(ptid), Old: u.named(old), New: u.named(row)})
		var val []byte // nil deletes an emptied row
		if len(old) > 0 {
			move -= rowHash(u.types, ptid, old)
		}
		if len(row) > 0 {
			move += rowHash(u.types, ptid, row)
			val = appendRow(nil, ptid, row)
		}
		if err := u.rewriteBlob(rowKey(u.id, ptid), val); err != nil {
			return err
		}
	}
	if len(changes) == 0 {
		return nil
	}
	h, err := shapeHashIn(u.base, u.id)
	if err != nil {
		return err
	}
	u.pending.put(blobKey('H', u.id), binary.BigEndian.AppendUint64(nil, h+move))
	u.delta = update.CompareRows(changes)
	return nil
}

// parentName names a row's parent type, "" for the roots row.
func (u *updater) parentName(ptid uint32) string {
	if ptid == rootsRow {
		return ""
	}
	return u.types[ptid]
}

// named spells out a row's edges with their children's names.
func (u *updater) named(row []rowEdge) []update.Edge {
	out := make([]update.Edge, len(row))
	for i, e := range row {
		out[i] = update.Edge{Child: u.types[e.tid], Card: e.card}
	}
	return out
}

type childEdge struct {
	child string
	first []byte // the first instance's encoded Dewey number
	card  shape.Card
}

// computeEdges recounts one parent type's edges from its live node
// sequences, in first-instance sibling order.
func (u *updater) computeEdges(pt string) ([]childEdge, error) {
	parents, err := u.instances(pt)
	if err != nil {
		return nil, err
	}
	size := xmltree.KeySize(xmltree.TypeDepth(pt))
	var out []childEdge
	for _, tid := range u.below(pt, false) {
		ct := u.types[tid]
		if !u.isLive(ct) {
			continue
		}
		kids, err := u.instances(ct)
		if err != nil {
			return nil, err
		}
		if len(kids) == 0 {
			continue
		}
		// Both sequences are in document order and a node's encoded Dewey
		// number begins with its parent's, so one merge pass counts
		// per-parent children.
		min, max := -1, 0
		i, kid := 0, size+xmltree.KeyLevelBytes
		for p := 0; p < len(parents); p += size {
			cnt := 0
			for i < len(kids) && bytes.Equal(kids[i:i+size], parents[p:p+size]) {
				cnt++
				i += kid
			}
			if min == -1 || cnt < min {
				min = cnt
			}
			if cnt > max {
				max = cnt
			}
		}
		if i != len(kids) {
			return nil, fmt.Errorf("store: update: %d orphaned %s instances", (len(kids)-i)/kid, ct)
		}
		if min == -1 {
			min = 0
		}
		out = append(out, childEdge{ct, kids[:kid], shape.Card{Min: min, Max: max}})
	}
	// The children's numbers have one length, so byte order is document
	// order.
	slices.SortStableFunc(out, func(a, b childEdge) int { return bytes.Compare(a.first, b.first) })
	return out, nil
}

// rewriteBlob replaces a chunked blob, a nil val deleting it: it puts
// the chunks whose bytes changed and deletes the stale ones beyond the
// new chunk count. A registry that only gained types rewrites its last
// chunks and its first, whose header counts them.
func (u *updater) rewriteBlob(key, val []byte) error {
	olds := map[string][]byte{}
	if err := u.scanPrefix(key, func(k, v []byte) bool {
		olds[string(k)] = append([]byte(nil), v...)
		return true
	}); err != nil {
		return err
	}
	var keys, vals [][]byte
	if val != nil {
		arena, recs, err := appendChunks(nil, nil, key, val)
		if err != nil {
			return err
		}
		keys, vals = appendRecords(nil, nil, arena, recs)
	}
	for i, k := range keys {
		old, ok := olds[string(k)]
		delete(olds, string(k))
		if !ok || !bytes.Equal(old, vals[i]) {
			u.pending.put(k, vals[i])
		}
	}
	for k := range olds {
		u.pending.del([]byte(k))
	}
	return nil
}
