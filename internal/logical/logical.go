// Package logical evaluates an XQuery query against a guard's output
// without rendering the whole transformation — a step toward the paper's
// architecture #3 ("logically transform the data in situ", Section VIII's
// near-term future work).
//
// The full re-engineering of a query engine is out of scope there and
// here; what this package implements is the load-bearing part: the query's
// label paths (via xq.ExtractPaths) prune the composed target shape to the
// types the query can possibly touch, only that projection is rendered,
// and the query runs over the small result. Answers equal running the
// query over the full transformation, because XQuery path semantics never
// look at elements whose labels the query does not traverse (wildcard and
// text() steps disable pruning below their chain, conservatively keeping
// whole subtrees).
//
// The projection is emitted in one walk straight into the tree the query
// reads — the renderer's walk and tree sink, below a wrapper element —
// with no serialized bytes in between. A stored document whose pruned
// projection the planner marks streamable supplies its partners from
// forward scans (internal/stream's); any other source from closest joins.
package logical

import (
	"fmt"
	"strings"

	"xmorph/internal/core"
	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/stream"
	"xmorph/internal/xmltree"
	"xmorph/internal/xq"
)

// Result carries the answer plus the projection statistics.
type Result struct {
	// Answer is the serialized query result.
	Answer string
	// RenderedNodes counts the nodes of the pruned rendering.
	RenderedNodes int
	// KeptTypes / TotalTypes count target types before and after pruning.
	KeptTypes  int
	TotalTypes int
	// Streamable reports the planner's verdict on the guard's full
	// (unpruned) target; PlanReason carries the blocking join when not.
	Streamable bool
	PlanReason string
	// Scanned reports that the projection's partners came from forward
	// scans of a stored document rather than from closest joins.
	Scanned bool
}

// Evaluate type-checks the guard, prunes its target to the query's paths,
// renders the projection, and runs the query over it bound as docName.
func Evaluate(query, guardSrc, docName string, doc *xmltree.Document) (*Result, error) {
	checked, err := core.Check(guardSrc, shape.FromDocument(doc), nil)
	if err != nil {
		return nil, err
	}
	return EvaluateChecked(query, checked, docName, doc, nil)
}

// EvaluateChecked is Evaluate with the guard already compiled, over any
// render source (e.g. a shredded store's document, of which only the type
// sequences the pruned projection mentions are read) — the seam that lets
// the engine facade serve the compile phase from its shape-aware guard
// cache. Under a non-nil parent span the pruning (annotated with kept and
// total types), the projected render and the query each get a child span.
func EvaluateChecked(query string, checked *core.Checked, docName string, doc render.Source, parent *obs.Span) (*Result, error) {
	tgt := checked.Plan.ComposedTarget()
	total := countTypes(tgt)
	verdict := plan.Classify(tgt)

	psp := parent.Child("prune")
	chains, err := xq.ExtractPaths(query)
	if err != nil {
		psp.End()
		return nil, err
	}
	pruned := Prune(tgt, chains)
	kept := countTypes(pruned)
	psp.Set("kept-types", int64(kept))
	psp.Set("total-types", int64(total))
	psp.End()

	rsp := parent.Child("render")
	wrapped, scanned, err := project(doc, plan.Build(pruned), rsp)
	rsp.End()
	if err != nil {
		return nil, err
	}

	qsp := parent.Child("query")
	defer qsp.End()
	eng := xq.New()
	eng.Bind(docName, wrapped)
	answer, err := eng.QueryXML(rebase(query, docName))
	if err != nil {
		return nil, err
	}
	qsp.Set("answer-bytes", int64(len(answer)))
	return &Result{
		Answer:        answer,
		RenderedNodes: wrapped.Size() - 1,
		KeptTypes:     kept,
		TotalTypes:    total,
		Streamable:    verdict.Streamable,
		PlanReason:    verdict.Reason,
		Scanned:       scanned,
	}, nil
}

// project emits the projection t into the query's input: one
// <xmorph-result> element holding the rendered forest, as the query
// addresses doc(docName) and results are forests. The partners come from
// forward scans when doc is stored and t streamable (scanned), from
// closest joins otherwise.
func project(doc render.Source, t *plan.Tree, sp *obs.Span) (wrapped *xmltree.Document, scanned bool, err error) {
	b := xmltree.NewBuilder()
	b.Elem("xmorph-result")
	d, stored := doc.(*store.Doc)
	if scanned = stored && t.Decision().Streamable; scanned {
		s := stream.OpenScans(stream.FromDoc(d), t)
		render.EmitTree(t, s, b)
		err = s.Err()
		s.Close()
	} else {
		render.EmitTree(t, render.JoinPartners(doc, t), b)
	}
	if err == nil {
		wrapped, err = b.End().Document()
	}
	if err != nil {
		return nil, false, err
	}
	sp.Set("nodes-out", int64(wrapped.Size()-1))
	return wrapped, scanned, nil
}

// rebase rewrites doc("name")/step to doc("name")//step so queries written
// against the guard's root types keep working under the wrapper element.
func rebase(query, docName string) string {
	needle := fmt.Sprintf(`doc("%s")/`, docName)
	if strings.Contains(query, needle) && !strings.Contains(query, needle+"/") {
		return strings.ReplaceAll(query, needle, fmt.Sprintf(`doc("%s")//`, docName))
	}
	return query
}

func countTypes(t *semantics.Target) int {
	n := 0
	t.Walk(func(*semantics.TNode) { n++ })
	return n
}

// Prune keeps only the target types the query's label chains can reach:
// a node survives when it completes a chain (the query selects it — its
// whole subtree stays, atomization reads descendants), or when some
// descendant survives (ancestors stay on the path to selected nodes).
// Because ExtractPaths does not distinguish child from descendant steps,
// every step is treated as a descendant step — strictly conservative.
// A nil/empty chain set keeps everything (nothing to prune with).
func Prune(t *semantics.Target, chains [][]string) *semantics.Target {
	if len(chains) == 0 {
		return t
	}
	out := &semantics.Target{}
	for _, r := range t.Roots {
		if kept := pruneNode(r, chains); kept != nil {
			out.Roots = append(out.Roots, kept)
		}
	}
	if len(out.Roots) == 0 {
		// The query's paths touch nothing in the target: keep the full
		// target so the query returns its honest empty answer over the
		// real shape.
		return t
	}
	return out
}

// pruneNode prunes the subtree at n under the set of active chain
// suffixes. Chains remain active at every depth (descendant semantics);
// consuming a step narrows a copy of the chain for the nodes below.
func pruneNode(n *semantics.TNode, active [][]string) *semantics.TNode {
	label := nodeLabel(n)
	var consumed [][]string
	for _, ch := range active {
		if len(ch) > 0 && stepLabel(ch[0]) == label {
			if len(ch) == 1 {
				// The query selects this node: keep its whole subtree.
				return n.Copy()
			}
			consumed = append(consumed, ch[1:])
		}
	}
	next := active
	if len(consumed) > 0 {
		// Fresh slice: appending to the caller's backing array would leak
		// suffixes across sibling subtrees.
		next = append(append([][]string(nil), active...), consumed...)
	}
	cp := n.Copy()
	cp.Kids = nil
	survived := false
	for _, k := range n.Kids {
		if kc := pruneNode(k, next); kc != nil {
			cp.Attach(kc)
			survived = true
		}
	}
	if !survived {
		return nil
	}
	return cp
}

func nodeLabel(n *semantics.TNode) string {
	return strings.ToLower(strings.TrimPrefix(n.Name, "@"))
}

func stepLabel(s string) string {
	return strings.ToLower(strings.TrimPrefix(s, "@"))
}
