// Package stream is the one-pass streaming executor for streamable
// guards (see internal/plan): the renderer's walk (internal/render) with
// closest partners supplied by Dewey-ordered node scans instead of
// joins, and output written straight to a writer. It holds only a
// bounded set of forward cursors — one per down- or up-axis join — and
// never materializes type sequences, closest.Grouped join graphs, or a
// result tree, so its peak memory is bounded by a constant cap, not by
// the document, and the first output byte leaves before the first type
// sequence has been fully read.
//
// A whole-document transformation renders on several cores: when the
// root is the document element, its element kids' subtrees render side
// by side, on as many cores as the caller passes, and are spliced back
// in document order from a capped pool of blocks (split.go).
//
// The invariant that makes one pass suffice: every rendered node's
// parent instances arrive in document order with pairwise-disjoint
// subtrees (they share one type, hence one depth), so each join
// cursor's probe positions only ever move forward — down-axis partner
// runs are consumed in order, and up-axis ancestor lookups advance to
// a non-decreasing Dewey prefix. RESTRICT probes park on their witness
// so a repeated probe of the same vertex re-answers consistently
// without rereading.
//
// The byte output equals Render(...).XML(indent) for every target the
// planner marks streamable: the walk and the XML encoder are the
// renderer's own, and the golden corpus in testdata checks that the
// scans find the partners the joins find. OpenScans hands the same
// partners to other sinks: internal/logical builds its query input with it.
package stream

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// ErrNotStreamable reports an Execute call on a target the planner
// classified store-backed; callers should fall back to render.StreamTree.
var ErrNotStreamable = errors.New("stream: target is not streamable")

// Cursor is a forward-only scan over one type's node sequence in Dewey
// order. DeweyKey is the current node's Dewey key (xmltree.AppendKey), so
// byte order is document order.
// DeweyKey and Value may alias reused buffers or a store's immutable page
// image: copy or encode them before Next, never write to them.
type Cursor interface {
	Next() bool
	DeweyKey() []byte
	Value() []byte
	Err() error
	Close()
}

// Source opens Dewey-ordered scans of type sequences. Scans of types
// the source does not hold must yield an empty cursor.
type Source interface {
	ScanType(t string) Cursor
}

// FromDoc adapts a shredded store document to a streaming Source: each
// scan decodes nodes straight from the kvstore iterator.
func FromDoc(d *store.Doc) Source { return docSource{d} }

type docSource struct{ d *store.Doc }

func (s docSource) ScanType(t string) Cursor { return s.d.ScanType(t) }

// Execute streams the composed target from src to w as compact XML: it
// is ExecuteTree of tgt's execution tree without indentation, on up to
// GOMAXPROCS cores.
func Execute(src Source, tgt *semantics.Target, w io.Writer, sp *obs.Span) (int, error) {
	return ExecuteTree(src, plan.Build(tgt), w, false, runtime.GOMAXPROCS(0), sp)
}

// ExecuteTree streams execution tree t from src to w in one pass,
// returning the number of elements and attributes written. It fails
// with ErrNotStreamable when the planner rejects the tree. A tree whose
// root is the document element renders its root's element kids on up to
// procs cores (split.go); any other tree, and every tree when procs is
// 1, renders in one walk on the calling goroutine. When sp is non-nil it
// records nodes, bytes, cursor count, the jobs and workers the run was
// cut into (1 and 1 when it was not) and the most blocks it held at once
// (0 when it was not); a nil span is free. Write and storage errors —
// including the final buffered flush — are surfaced on the returned
// error.
func ExecuteTree(src Source, t *plan.Tree, w io.Writer, indent bool, procs int, sp *obs.Span) (int, error) {
	var f figures
	err := executeTree(src, t, w, indent, procs, &f)
	if sp != nil {
		sp.Set("nodes-out", int64(f.nodes))
		sp.Set("bytes-out", f.bytes)
		sp.Set("scans", int64(f.scans))
		sp.Set("jobs", int64(f.jobs))
		sp.Set("workers", int64(f.workers))
		sp.Set("blocks", int64(f.held))
	}
	return f.nodes, err
}

// figures is what one ExecuteTree did: the figures its span records, and
// the blocks a split failed to return to the pool, 0 unless it leaks.
type figures struct {
	nodes                int
	bytes                int64
	scans, jobs, workers int
	held, out            int
}

// executeTree is ExecuteTree, reporting in f.
func executeTree(src Source, t *plan.Tree, w io.Writer, indent bool, procs int, f *figures) error {
	if d := t.Decision(); !d.Streamable {
		return fmt.Errorf("%w: %s", ErrNotStreamable, d.Reason)
	}
	if r := splitRoot(t, procs); r != nil {
		return executeSplit(src, t, r, w, indent, procs, f)
	}
	f.jobs, f.workers = 1, 1
	s := OpenScans(src, t)
	defer s.Close()
	var err error
	f.nodes, f.bytes, err = render.EmitXML(t, s, w, indent)
	if err == nil {
		err = s.Err()
	}
	f.scans = s.opened
	return err
}

// Scans is the scan-backed render.Partners: per occurrence, one forward
// cursor over the occurrence's type sequence (none on the self axis,
// where the partner is the vertex joined from). It is sound only for a
// tree whose Decision is streamable.
type Scans struct {
	occ    []scan // indexed by plan.Node.ID
	opened int
}

// scan is one occurrence's cursor and enumeration state.
type scan struct {
	c     Cursor
	valid bool // c is positioned on a node, which at mirrors
	at    render.Vertex
	// from is the vertex of the enumeration in progress; taken records
	// that the cursor's current node (on the self axis, from itself) was
	// handed out, so a down-axis Next steps past it before looking again.
	// An abandoned enumeration therefore leaves the cursor parked on the
	// partner last returned.
	from  *render.Vertex
	taken bool
}

func (sc *scan) advance() {
	if sc.valid = sc.c.Next(); sc.valid {
		sc.at.Dewey, sc.at.Value = sc.c.DeweyKey(), sc.c.Value()
	}
}

// OpenScans opens (and primes) a cursor for every join of t that needs
// its own scan. The cursors stay open until Close.
func OpenScans(src Source, t *plan.Tree) *Scans {
	s := &Scans{occ: make([]scan, len(t.Nodes))}
	for _, x := range t.Nodes {
		s.open(src, x)
	}
	return s
}

// open opens and primes x's cursor, if its join needs one.
func (s *Scans) open(src Source, x *plan.Node) {
	if x.Sourced && x.Axis != plan.AxisSelf {
		sc := &s.occ[x.ID]
		sc.c = src.ScanType(x.TN.Source)
		sc.advance()
		s.opened++
	}
}

// openTree opens the cursors of x and of every occurrence below it,
// requirement probes included: all that rendering x's emissions reads.
func (s *Scans) openTree(src Source, x *plan.Node) {
	s.open(src, x)
	for _, k := range x.Reqs {
		s.openTree(src, k)
	}
	for _, k := range x.Kids {
		s.openTree(src, k)
	}
}

// closeTree closes the cursors openTree(x) opened and forgets their
// state, so the occurrences can be opened again.
func (s *Scans) closeTree(x *plan.Node) {
	if c := s.occ[x.ID].c; c != nil {
		c.Close()
		s.occ[x.ID] = scan{}
	}
	for _, k := range x.Reqs {
		s.closeTree(k)
	}
	for _, k := range x.Kids {
		s.closeTree(k)
	}
}

// Close releases every cursor.
func (s *Scans) Close() {
	for i := range s.occ {
		if c := s.occ[i].c; c != nil {
			c.Close()
		}
	}
}

// Err reports the first storage error a cursor hit.
func (s *Scans) Err() error {
	for i := range s.occ {
		if c := s.occ[i].c; c != nil && c.Err() != nil {
			return fmt.Errorf("stream: scan: %w", c.Err())
		}
	}
	return nil
}

// Seek moves x's cursor up to v's partners. It only ever moves forward:
// the vertices an occurrence is sought for arrive in document order with
// disjoint subtrees, so down-axis runs are consumed in order and the
// up-axis ancestor never precedes the previous one.
func (s *Scans) Seek(x *plan.Node, v *render.Vertex) *render.Vertex {
	sc := &s.occ[x.ID]
	sc.from, sc.taken = v, false
	switch x.Axis {
	case plan.AxisDown:
		for sc.valid && xmltree.CompareKeyPrefix(sc.at.Dewey, v.Dewey) < 0 {
			sc.advance()
		}
	case plan.AxisUp:
		for sc.valid && xmltree.CompareKeyPrefix(v.Dewey, sc.at.Dewey) > 0 {
			sc.advance()
		}
	}
	return s.Next(x)
}

func (s *Scans) Next(x *plan.Node) *render.Vertex {
	sc := &s.occ[x.ID]
	switch x.Axis {
	case plan.AxisSelf:
		if sc.taken {
			return nil
		}
		sc.taken = true
		return sc.from
	case plan.AxisDown:
		// Partners are the run of the sequence inside from's subtree.
		if sc.taken {
			sc.advance()
		}
		sc.taken = sc.valid && xmltree.CompareKeyPrefix(sc.at.Dewey, sc.from.Dewey) == 0
	case plan.AxisUp:
		// The unique partner is the ancestor at the type's depth: the
		// vertex whose Dewey number prefixes from's. The cursor stays on
		// it for from's siblings.
		sc.taken = !sc.taken && sc.valid && xmltree.CompareKeyPrefix(sc.from.Dewey, sc.at.Dewey) == 0
	}
	if !sc.taken {
		return nil
	}
	return &sc.at
}
