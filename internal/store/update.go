package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

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

// HashShape returns the 64-bit FNV-1a hash of a shape's canonical store
// encoding. Equal hashes ⇒ identical shapes (modulo hash collisions),
// including sibling order, so guard caches can key compilations on
// (docID, shape hash) and survive shape-preserving updates.
func HashShape(sh *shape.Shape) uint64 {
	return hashShapeEnc(encodeShape(sh))
}

func hashShapeEnc(enc string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(enc))
	return h.Sum64()
}

// ShapeHash returns the document's stored shape hash as of the view.
// ok is false for documents shredded before hash records existed (the
// caller falls back to hashing the loaded shape).
func (v *View) ShapeHash(name string) (uint64, bool, error) {
	id, ok, err := docIDIn(v.snap, name)
	if err != nil || !ok {
		return 0, false, err
	}
	b, ok, err := v.snap.Get(blobKey('H', id))
	if err != nil || !ok {
		return 0, false, err
	}
	if len(b) != 8 {
		return 0, false, fmt.Errorf("store: corrupt shape hash for %q", name)
	}
	return binary.BigEndian.Uint64(b), true, nil
}

// DeleteShapeHash removes a document's shape-hash record, reverting it
// to the pre-hash on-disk format. Migration tests use it to exercise
// the legacy-document fallback paths; nothing else should.
func (s *Store) DeleteShapeHash(name string) error {
	id, ok, err := s.docID(name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store: document %q not found", name)
	}
	if err := s.db.Delete(blobKey('H', id)); err != nil {
		return err
	}
	return s.db.Sync()
}

// Update applies a parsed update script to a shredded document by
// re-shredding only the dirty subtrees: deleted Dewey ranges and
// freshly shredded fragments accumulate in a write overlay (phase 1,
// reads through one pinned snapshot, nothing written on error), then
// the whole overlay commits as one group-committed, WAL-covered batch
// (phase 2) — a crash recovers to either the old or the new document,
// never between. Sibling slots reuse Dewey gaps when one exists and
// fall back to suffix re-keying of the following sibling subtrees;
// component values never matter to joins or rendering, only order.
//
// The touched-subtree shape is re-inferred exactly (per-instance child
// counts and first-instance sibling order, the same rules the shredder
// folds), so the stored shape, its hash record, and the returned Delta
// always match what a full re-shred of the edited document would have
// produced. The document keeps its docID: version-keyed caches stay
// valid, and shape-aware ones invalidate only on a real shape change.
//
// Concurrent writers to the same document are the caller's
// responsibility, as with Shred and Drop.
func (s *Store) Update(name string, ops []update.Op, parent *obs.Span) (*UpdateInfo, error) {
	sp := parent.Child("update")
	defer sp.End()
	before := s.Stats()

	v := s.View()
	defer v.Close()
	id, ok, err := docIDIn(v.snap, name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("store: document %q not found", name)
	}
	types, err := typesIn(v.snap, id)
	if err != nil {
		return nil, err
	}
	oldShape, err := shapeIn(v.snap, name)
	if err != nil {
		return nil, err
	}

	u := &updater{
		base:         v.snap,
		id:           id,
		typeRegistry: newTypeRegistry(types),
		puts:         map[string][]byte{},
		dels:         map[string]bool{},
		touched:      map[string]bool{},
		oldShape:     oldShape,
	}

	for i, op := range ops {
		if err := u.apply(op); err != nil {
			return nil, fmt.Errorf("store: update statement %d: %w", i+1, err)
		}
	}

	newShape, err := u.recomputeShape()
	if err != nil {
		return nil, err
	}
	enc := encodeShape(newShape)
	if err := u.rewriteBlob(blobKey('T', id), []byte(strings.Join(u.types, "\n"))); err != nil {
		return nil, err
	}
	if err := u.rewriteBlob(blobKey('S', id), []byte(enc)); err != nil {
		return nil, err
	}
	u.put(blobKey('H', id), binary.BigEndian.AppendUint64(nil, hashShapeEnc(enc)))

	// Phase 2: flush the overlay. Everything up to the Sync is visible to
	// new readers as it lands but becomes durable only with the group
	// commit, exactly like a shred.
	delKeys := make([]string, 0, len(u.dels))
	for k := range u.dels {
		delKeys = append(delKeys, k)
	}
	sort.Strings(delKeys)
	for _, k := range delKeys {
		if err := s.db.Delete([]byte(k)); err != nil {
			return nil, err
		}
	}
	putKeys := make([]string, 0, len(u.puts))
	for k := range u.puts {
		putKeys = append(putKeys, k)
	}
	sort.Strings(putKeys)
	keys := make([][]byte, len(putKeys))
	vals := make([][]byte, len(putKeys))
	for i, k := range putKeys {
		keys[i] = []byte(k)
		vals[i] = u.puts[k]
	}
	if err := s.db.PutBatch(keys, vals); err != nil {
		return nil, err
	}
	if err := s.db.Sync(); err != nil {
		return nil, err
	}

	delta := update.Compare(oldShape, newShape)
	info := &UpdateInfo{
		Name:          name,
		Ops:           len(ops),
		NodesInserted: u.inserted,
		NodesDeleted:  u.deleted,
		Delta:         delta,
	}
	after := s.Stats()
	info.PagesWritten = after.BlocksWritten - before.BlocksWritten
	if sp != nil {
		sp.Set("ops", int64(len(ops)))
		sp.Set("nodes-inserted", int64(u.inserted))
		sp.Set("nodes-deleted", int64(u.deleted))
		sp.Set("keys-put", int64(len(putKeys)))
		sp.Set("keys-deleted", int64(len(delKeys)))
		sp.Set("pages-written", info.PagesWritten)
		sp.SetStr("shape-delta", delta.Kind.String())
	}
	return info, nil
}

// updater accumulates an update script's effect as an overlay over one
// pinned snapshot: reads merge the overlay with the base so sequential
// statements observe earlier ones, and nothing reaches the store until
// the overlay commits wholesale.
type updater struct {
	*typeRegistry
	base     reader
	id       uint32
	puts     map[string][]byte
	dels     map[string]bool
	touched  map[string]bool
	oldShape *shape.Shape
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
		return u.putBlob(key, value)
	}, parentT, pd, ord)
	frag.Replay(sh)
	u.inserted += sh.nodes
	return sh.err
}

// recomputeShape re-infers the edited document's adorned shape exactly.
// Untouched parents copy their old edges (their instance sets and child
// orders cannot have changed); touched parents recount per-instance
// child cardinalities by merging the Dewey-ordered sequences and order
// their children by first-instance Dewey — the same order shape.Fold
// produces during a shred, so the result is byte-identical to
// re-shredding the edited document.
func (u *updater) recomputeShape() (*shape.Shape, error) {
	live := make(map[string]bool, len(u.types))
	for _, t := range u.types {
		if u.touched[t] {
			ok, err := u.hasInstances(t)
			if err != nil {
				return nil, err
			}
			live[t] = ok
		} else {
			live[t] = u.oldShape.HasType(t)
		}
	}
	out := shape.New()
	for _, t := range u.types {
		if live[t] {
			out.AddType(t)
		}
	}
	for _, pt := range u.types {
		if !live[pt] {
			continue
		}
		if !u.touched[pt] {
			for _, ct := range u.oldShape.Children(pt) {
				if !live[ct] {
					continue
				}
				card, _ := u.oldShape.Card(pt, ct)
				if err := out.AddEdge(pt, ct, card); err != nil {
					return nil, err
				}
			}
			continue
		}
		edges, err := u.computeEdges(pt, live)
		if err != nil {
			return nil, err
		}
		for _, e := range edges {
			if err := out.AddEdge(pt, e.child, e.card); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

type childEdge struct {
	child string
	first xmltree.Dewey
	card  shape.Card
}

// computeEdges recounts one parent type's edges from its live node
// sequences, in first-instance sibling order.
func (u *updater) computeEdges(pt string, live map[string]bool) ([]childEdge, error) {
	parents, err := u.instances(pt)
	if err != nil {
		return nil, err
	}
	var out []childEdge
	for _, ct := range u.types {
		if !live[ct] || xmltree.TypeParent(ct) != pt {
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

// rewriteBlob replaces a chunked blob wholesale, deleting stale chunks
// beyond the new chunk count.
func (u *updater) rewriteBlob(key, val []byte) error {
	var olds [][]byte
	if err := u.scanPrefix(key, func(k, v []byte) bool {
		olds = append(olds, append([]byte(nil), k...))
		return true
	}); err != nil {
		return err
	}
	for _, k := range olds {
		u.del(k)
	}
	return u.putBlob(key, val)
}

// putBlob writes a value's chunked records into the overlay.
func (u *updater) putBlob(key, val []byte) error {
	_, keys, vals, err := appendBlobChunks(nil, nil, nil, key, val)
	if err != nil {
		return err
	}
	for i := range keys {
		u.put(keys[i], vals[i])
	}
	return nil
}
