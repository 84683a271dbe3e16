// Package render implements the Render algorithm of Section VII: given a
// target shape and a source document, it produces the output forest by
// recursively descending the target and pairing closest nodes, emitting
// in document order.
//
// There is one walk (emit.go) over the target's execution tree
// (plan.Build). It is parameterised by where closest partners come from —
// a Partners — and where output goes — a tree builder or an XML byte
// encoder. This package supplies the join-backed Partners (closest joins
// merged on the Dewey keys of whole type sequences, one per type pair)
// and the entry points that pair it with each sink; internal/stream
// supplies the scan-backed Partners.
//
// The join-backed read cost is linear in the size of the source type
// sequences touched (each closest join is a single merge); the write cost
// is bounded by the size of the output, which may be quadratic in the
// source when the target duplicates snippets (as the paper notes).
package render

import (
	"fmt"
	"io"

	"xmorph/internal/closest"
	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/semantics"
	"xmorph/internal/xmltree"
)

// Source supplies document-ordered type sequences — the TypeToSequence
// table of Section VIII. *xmltree.Document satisfies it (in memory, each
// vertex with its node), as does *store.Doc (lazily reading sequences
// from the shredded store, so the renderer touches only the types the
// target mentions).
type Source interface {
	SeqOfType(t string) *xmltree.Seq
}

// Render transforms doc into the arrangement described by tgt, preserving
// closest relationships (Definition 4). Every output element and attribute
// carries Src provenance to the source vertex it was rendered from;
// manufactured (NEW / TYPE-FILL) elements have no provenance.
//
// When sp is non-nil, Render records the closest-join statistics (joins,
// candidate nodes scanned, closest pairs kept) and the output node count
// on it. The span's lifetime belongs to the caller (Render neither
// creates children nor ends it); a nil sp adds no allocations.
func Render(doc Source, tgt *semantics.Target, sp *obs.Span) (*xmltree.Document, error) {
	t := plan.Build(tgt)
	r := newRenderer(doc, sp)
	b := xmltree.NewBuilder()
	emit(t, r.partners(t), &treeSink{b: b})
	// Legal: the target types may simply have no instances.
	out := &xmltree.Document{}
	if b.Last() != nil {
		var err error
		if out, err = b.Document(); err != nil {
			return nil, fmt.Errorf("render: %w", err)
		}
	}
	r.annotate(sp, out.Size())
	return out, nil
}

// Stream renders the transformation directly to w as compact XML
// without materializing the output tree — Section VII's observation that
// "a transformation can immediately produce output, and stream the output
// node by node (in document order)". It is StreamTree of tgt's execution
// tree without indentation.
func Stream(doc Source, tgt *semantics.Target, w io.Writer, sp *obs.Span) (int, error) {
	return StreamTree(doc, plan.Build(tgt), w, false, sp)
}

// StreamTree writes the rendering of execution tree t to w. Closest joins
// still run over whole type sequences (sort-merge needs both sides), but
// output memory stays constant: nothing of the result is retained.
// (internal/stream goes further for trees the planner marks streamable,
// dropping the joins too.)
//
// The byte output equals Render(...).XML(indent). StreamTree returns the
// number of elements and attributes written. Write errors — including
// those the final buffered flush surfaces — are returned after the count
// of nodes written before the failure.
//
// When sp is non-nil it records join statistics, nodes emitted, and bytes
// written on sp. The span's lifetime belongs to the caller; a nil sp
// changes nothing.
func StreamTree(doc Source, t *plan.Tree, w io.Writer, indent bool, sp *obs.Span) (int, error) {
	r := newRenderer(doc, sp)
	n, bytes, err := EmitXML(t, r.partners(t), w, indent)
	if sp != nil {
		r.annotate(sp, n)
		sp.Set("bytes-out", bytes)
	}
	return n, err
}

// JoinPartners returns the join-backed Partners of doc for t, for callers
// that pair it with a sink of their own (EmitTree).
func JoinPartners(doc Source, t *plan.Tree) Partners {
	return newRenderer(doc, nil).partners(t)
}

type joinKey struct{ parent, child string }

// renderer is the join-backed partner source.
type renderer struct {
	doc Source
	// joins holds the grouped closest join of each (parent type, child
	// type) pair run so far, for the occurrences that share one.
	joins map[joinKey]*closest.Grouped
	// rec accumulates join statistics for tracing; nil when untraced.
	rec *closest.Recorder
}

func newRenderer(doc Source, sp *obs.Span) *renderer {
	r := &renderer{doc: doc, joins: map[joinKey]*closest.Grouped{}}
	if sp != nil {
		r.rec = &closest.Recorder{}
	}
	return r
}

// partners returns the join-backed Partners of t's walk.
func (r *renderer) partners(t *plan.Tree) Partners {
	return &joinPartners{r: r, run: make([]nodeRun, len(t.Nodes))}
}

// joinPartners enumerates each occurrence's partners from the renderer:
// its whole type sequence at a root, below one the partners the closest
// join of its edge groups by the joined-from vertex's Ord.
type joinPartners struct {
	r   *renderer
	run []nodeRun
}

// nodeRun is one occurrence's sequence and join, fetched on its first
// Seek, and its enumeration: the partners still to come and the one
// handed out.
type nodeRun struct {
	seq  *xmltree.Seq
	join *closest.Grouped // nil at a root
	next int              // at a root, the next vertex
	rest []int32          // below one, the partners to come
	at   Vertex
}

func (p *joinPartners) Seek(x *plan.Node, v *Vertex) *Vertex {
	r := &p.run[x.ID]
	if r.seq == nil {
		r.seq = p.r.doc.SeqOfType(x.TN.Source)
		if x.Join != "" {
			r.join = p.r.join(x.Join, x.TN.Source)
		}
	}
	if r.join == nil {
		r.next = 0
	} else {
		r.rest = r.join.Of(v.Ord)
	}
	return p.Next(x)
}

func (p *joinPartners) Next(x *plan.Node) *Vertex {
	r := &p.run[x.ID]
	var i int
	switch {
	case r.join == nil && r.next < r.seq.Len():
		i = r.next
		r.next++
	case r.join != nil && len(r.rest) > 0:
		i = int(r.rest[0])
		r.rest = r.rest[1:]
	default:
		return nil
	}
	r.at = Vertex{Node: r.seq.Node(i), Dewey: r.seq.Key(i), Value: r.seq.Value(i), Ord: i}
	return &r.at
}

// join returns the closest join of the parent and child type sequences,
// grouped by parent, running it on the edge's first use.
func (r *renderer) join(parent, child string) *closest.Grouped {
	key := joinKey{parent, child}
	g, ok := r.joins[key]
	if !ok {
		g = closest.Group(r.doc.SeqOfType(parent), r.doc.SeqOfType(child), r.rec)
		r.joins[key] = g
	}
	return g
}

// annotate writes the join statistics and output size onto sp.
func (r *renderer) annotate(sp *obs.Span, nodesOut int) {
	if sp == nil {
		return
	}
	joins, candidates, pairs := r.rec.Snapshot()
	sp.Set("joins", joins)
	sp.Set("candidates", candidates)
	sp.Set("closest-pairs", pairs)
	sp.Set("nodes-out", int64(nodesOut))
}
