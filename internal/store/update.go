package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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
		sp.Set("keys-put", int64(len(u.puts)))
		sp.Set("keys-deleted", int64(len(u.dels)))
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
		puts:         map[string][]byte{},
		dels:         map[string]bool{},
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

	// Phase 2: the overlay's deletes and puts commit as one transaction
	// (the two key sets are disjoint; see put and del).
	var b kvstore.Batch
	for k := range u.dels {
		b.Delete([]byte(k))
	}
	for k, val := range u.puts {
		b.Put([]byte(k), val)
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
	puts     map[string][]byte
	dels     map[string]bool
	touched  map[string]bool
	// rows holds the shape rows the recount read, as they were before
	// the script, by parent typeID: the touched types' own and their
	// parents'. A row absent from the store is empty.
	rows map[uint32][]rowEdge
	// live and edges are the recount of the touched types: whether each
	// still has instances, and each live one's edges to its children.
	live     map[string]bool
	edges    map[string][]childEdge
	delta    update.Delta // the old shape to the recounted one
	inserted int
	deleted  int
}

func (u *updater) put(k, v []byte) {
	ks := string(k)
	delete(u.dels, ks)
	u.puts[ks] = v
}

func (u *updater) del(k []byte) {
	ks := string(k)
	delete(u.puts, ks)
	u.dels[ks] = true
}

func (u *updater) touch(t string) {
	if t != "" {
		u.touched[t] = true
	}
}

// scanPrefix iterates base ∪ overlay in key order, skipping overlay
// deletions and preferring overlay values.
func (u *updater) scanPrefix(prefix []byte, fn func(k, v []byte) bool) error {
	var adds []string
	for k := range u.puts {
		if strings.HasPrefix(k, string(prefix)) {
			adds = append(adds, k)
		}
	}
	sort.Strings(adds)
	i := 0
	stopped := false
	err := u.base.AscendPrefix(prefix, func(k, v []byte) bool {
		ks := string(k)
		for i < len(adds) && adds[i] < ks {
			if !fn([]byte(adds[i]), u.puts[adds[i]]) {
				stopped = true
				return false
			}
			i++
		}
		if i < len(adds) && adds[i] == ks {
			ok := fn(k, u.puts[adds[i]])
			i++
			if !ok {
				stopped = true
			}
			return ok
		}
		if u.dels[ks] {
			return true
		}
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	for i < len(adds) {
		if !fn([]byte(adds[i]), u.puts[adds[i]]) {
			break
		}
		i++
	}
	return nil
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

// instances returns a type's live Dewey numbers in document order.
func (u *updater) instances(t string) ([]xmltree.Dewey, error) {
	tid, ok := u.typeID[t]
	if !ok {
		return nil, nil
	}
	depth := xmltree.TypeDepth(t)
	var out []xmltree.Dewey
	err := u.scanPrefix(nodePrefix(u.id, tid, nil), func(k, v []byte) bool {
		if enc, chunk, ok := splitNodeKey(k); ok && chunk == 0 && len(enc) == 4*depth {
			dw := make(xmltree.Dewey, depth)
			decodeDewey(dw, enc)
			out = append(out, dw)
		}
		return true
	})
	return out, err
}

// targets resolves a statement's path to its node set, requiring it to
// be non-empty.
func (u *updater) targets(path string) ([]xmltree.Dewey, error) {
	ds, err := u.instances(path)
	if err != nil {
		return nil, err
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("path %q resolves to no nodes", path)
	}
	return ds, nil
}

func (u *updater) hasInstances(t string) (bool, error) {
	tid, ok := u.typeID[t]
	if !ok {
		return false, nil
	}
	found := false
	err := u.scanPrefix(nodePrefix(u.id, tid, nil), func(k, v []byte) bool {
		found = true
		return false
	})
	return found, err
}

func (u *updater) applyDelete(op update.Op) error {
	if xmltree.TypeParent(op.Path) == "" {
		return fmt.Errorf("cannot delete the document root %q", op.Path)
	}
	ds, err := u.targets(op.Path)
	if err != nil {
		return err
	}
	for _, d := range ds {
		if err := u.deleteSubtree(op.Path, d); err != nil {
			return err
		}
	}
	u.touch(xmltree.TypeParent(op.Path))
	return nil
}

// deleteSubtree removes the node at (rootT, d) and every descendant: in
// each descendant-or-self type sequence, the keys under d's Dewey
// prefix. Sibling ordinals keep their gaps — only order matters.
func (u *updater) deleteSubtree(rootT string, d xmltree.Dewey) error {
	sub := rootT + xmltree.TypeSep
	for tid, t := range u.types {
		if t != rootT && !strings.HasPrefix(t, sub) {
			continue
		}
		var keys [][]byte
		if err := u.scanPrefix(nodePrefix(u.id, uint32(tid), d), func(k, v []byte) bool {
			keys = append(keys, append([]byte(nil), k...))
			return true
		}); err != nil {
			return err
		}
		for _, k := range keys {
			if _, chunk, _ := splitNodeKey(k); chunk == 0 {
				u.deleted++
			}
			u.del(k)
		}
		if len(keys) > 0 {
			u.touch(t)
		}
	}
	return nil
}

func (u *updater) applyInsert(op update.Op) error {
	if strings.HasPrefix(lastSegment(op.Path), "@") {
		return fmt.Errorf("cannot insert %s attribute path %q", op.Pos, op.Path)
	}
	if op.Pos == update.Into {
		frag, err := u.fragment(op.XML, op.Path)
		if err != nil {
			return err
		}
		ds, err := u.targets(op.Path)
		if err != nil {
			return err
		}
		for _, d := range ds {
			ords, err := u.childOrds(op.Path, d)
			if err != nil {
				return err
			}
			last := 0
			if len(ords) > 0 {
				last = ords[len(ords)-1]
			}
			if err := u.insertFragment(op.Path, d, last+1, frag); err != nil {
				return err
			}
		}
		return nil
	}

	parent := xmltree.TypeParent(op.Path)
	if parent == "" {
		return fmt.Errorf("cannot insert beside the document root %q", op.Path)
	}
	frag, err := u.fragment(op.XML, parent)
	if err != nil {
		return err
	}
	ds, err := u.targets(op.Path)
	if err != nil {
		return err
	}
	// Descending document order: when a slot needs suffix re-keying, the
	// shift only moves ordinals at or after the slot, so pending targets
	// (all earlier in document order) keep their Dewey numbers.
	for i := len(ds) - 1; i >= 0; i-- {
		d := ds[i]
		pd := d[:len(d)-1]
		k := d[len(d)-1]
		ords, err := u.childOrds(parent, pd)
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
				if err := u.shiftSiblings(parent, pd, k); err != nil {
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
				if err := u.shiftSiblings(parent, pd, r); err != nil {
					return err
				}
				ord = r
			}
		}
		if err := u.insertFragment(parent, pd, ord, frag); err != nil {
			return err
		}
	}
	return nil
}

func (u *updater) applyReplace(op update.Op) error {
	if strings.HasPrefix(lastSegment(op.Path), "@") {
		return fmt.Errorf("cannot replace attribute path %q with an element fragment", op.Path)
	}
	parent := xmltree.TypeParent(op.Path)
	frag, err := u.fragment(op.XML, parent)
	if err != nil {
		return err
	}
	ds, err := u.targets(op.Path)
	if err != nil {
		return err
	}
	for _, d := range ds {
		if err := u.deleteSubtree(op.Path, d); err != nil {
			return err
		}
		// The fragment takes the vacated slot: same parent, same ordinal.
		if err := u.insertFragment(parent, d[:len(d)-1], d[len(d)-1], frag); err != nil {
			return err
		}
	}
	return nil
}

// childOrds returns the sorted distinct child ordinals in use under the
// parent instance at (parentT, d).
func (u *updater) childOrds(parentT string, d xmltree.Dewey) ([]int, error) {
	seen := map[int]bool{}
	for tid, t := range u.types {
		if xmltree.TypeParent(t) != parentT {
			continue
		}
		if err := u.scanPrefix(nodePrefix(u.id, uint32(tid), d), func(k, v []byte) bool {
			if enc, _, ok := splitNodeKey(k); ok && len(enc) == 4*(len(d)+1) {
				seen[ordinalAt(enc, len(d))] = true
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	out := make([]int, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Ints(out)
	return out, nil
}

// shiftSiblings suffix-re-keys every child subtree of the parent
// instance at (parentT, pd) whose child ordinal is >= from, moving each
// ordinal up by one. Values move verbatim; relative order is preserved,
// so the shape is unaffected.
func (u *updater) shiftSiblings(parentT string, pd xmltree.Dewey, from int) error {
	sub := parentT + xmltree.TypeSep
	type move struct{ key, val []byte }
	var olds [][]byte
	var news []move
	for tid, t := range u.types {
		if !strings.HasPrefix(t, sub) {
			continue
		}
		if err := u.scanPrefix(nodePrefix(u.id, uint32(tid), pd), func(k, v []byte) bool {
			enc, _, _ := splitNodeKey(k)
			if c := ordinalAt(enc, len(pd)); c >= from {
				olds = append(olds, append([]byte(nil), k...))
				news = append(news, move{withOrdinal(k, len(pd), c+1), append([]byte(nil), v...)})
			}
			return true
		}); err != nil {
			return err
		}
	}
	// Delete every old key before writing any new one: the two key sets
	// overlap when consecutive ordinals shift, and the overlay resolves
	// each key to its final state only in this order.
	for _, k := range olds {
		u.del(k)
	}
	for _, m := range news {
		u.put(m.key, m.val)
	}
	return nil
}

// fragment parses a statement's fragment, once for all of the
// statement's targets, and marks its types — re-rooted below parentT —
// touched. It enters them into the registry in document order, elements
// ahead of their attributes: the numbering updates have always used,
// where a shred numbers a type when its first record is written.
func (u *updater) fragment(src, parentT string) (*xmltree.Node, error) {
	frag, err := xmltree.ParseString(src)
	if err != nil {
		return nil, err
	}
	u.touch(parentT)
	for _, n := range frag.Nodes() {
		t := joinType(parentT, n.Type)
		u.register(t)
		u.touch(t)
	}
	return frag.Root(), nil
}

// insertFragment shreds a parsed fragment under the parent instance at
// (parentT, pd), rooting the fragment at child ordinal ord: the
// document shredder, replayed from the tree, with the overlay as its
// output.
func (u *updater) insertFragment(parentT string, pd xmltree.Dewey, ord int, frag *xmltree.Node) error {
	sh := newShredder(u.id, u.typeRegistry, func(_ uint32, key, value []byte) error {
		return u.putChunks(key, value)
	}, parentT, pd, ord)
	frag.Replay(sh)
	u.inserted += sh.nodes
	return sh.err
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
	u.live = make(map[string]bool, len(u.touched))
	for t := range u.touched {
		ok, err := u.hasInstances(t)
		if err != nil {
			return err
		}
		u.live[t] = ok
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
	u.put(blobKey('H', u.id), binary.BigEndian.AppendUint64(nil, h+move))
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
	first xmltree.Dewey
	card  shape.Card
}

// computeEdges recounts one parent type's edges from its live node
// sequences, in first-instance sibling order.
func (u *updater) computeEdges(pt string) ([]childEdge, error) {
	parents, err := u.instances(pt)
	if err != nil {
		return nil, err
	}
	var out []childEdge
	for _, ct := range u.types {
		if xmltree.TypeParent(ct) != pt || !u.isLive(ct) {
			continue
		}
		kids, err := u.instances(ct)
		if err != nil {
			return nil, err
		}
		if len(kids) == 0 {
			continue
		}
		// Both sequences are in document order and children group under
		// their parents, so one merge pass counts per-parent children.
		min, max := -1, 0
		i := 0
		for _, p := range parents {
			cnt := 0
			for i < len(kids) && p.IsPrefixOf(kids[i]) {
				cnt++
				i++
			}
			if min == -1 || cnt < min {
				min = cnt
			}
			if cnt > max {
				max = cnt
			}
		}
		if i != len(kids) {
			return nil, fmt.Errorf("store: update: %d orphaned %s instances", len(kids)-i, ct)
		}
		if min == -1 {
			min = 0
		}
		out = append(out, childEdge{ct, kids[0], shape.Card{Min: min, Max: max}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].first.Compare(out[j].first) < 0 })
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
			u.put(k, vals[i])
		}
	}
	for k := range olds {
		u.del([]byte(k))
	}
	return nil
}

// putChunks writes a value's chunked records into the overlay.
func (u *updater) putChunks(key, val []byte) error {
	arena, recs, err := appendChunks(nil, nil, key, val)
	if err != nil {
		return err
	}
	keys, vals := appendRecords(nil, nil, arena, recs)
	for i := range keys {
		u.put(keys[i], vals[i])
	}
	return nil
}
