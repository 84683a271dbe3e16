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
// The projection is emitted in one walk. A query answerable one `for`
// binding at a time runs inside it, on each bound subtree as the walk
// closes it; any other query reads the whole projection, emitted into one
// tree below a wrapper element. A stored document whose pruned
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
	// PerBinding reports that the query ran on each binding's subtree as
	// the walk closed it; BindingReason says why not when it did not.
	PerBinding    bool
	BindingReason string
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
// total types), the projected render and the query each get a child span
// (the query's holds the render when it runs per binding).
func EvaluateChecked(query string, checked *core.Checked, docName string, doc render.Source, parent *obs.Span) (*Result, error) {
	p, res, err := prepare(query, checked, docName, parent)
	if err != nil {
		return nil, err
	}
	src, scanned, done := partners(doc, p.tree)
	run := p.wholeTree
	if res.PerBinding {
		run = p.perBinding
	}
	err = run(src, res, parent)
	if serr := done(); serr != nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	res.Scanned = scanned
	return res, nil
}

// projection is a query's pruned execution tree and the query; at marks
// the occurrences its for clause binds when it runs per binding.
type projection struct {
	tree    *plan.Tree
	query   string // rebased
	docName string
	bind    *xq.Binding
	at      []bool
}

// prepare prunes the guard's target to the query's paths and decides,
// from the query and the pruned tree alone, whether it runs per binding.
func prepare(query string, checked *core.Checked, docName string, parent *obs.Span) (*projection, *Result, error) {
	tgt := checked.Plan.ComposedTarget()
	verdict := plan.Classify(tgt)
	psp := parent.Child("prune")
	defer psp.End()
	chains, err := xq.ExtractPaths(query)
	if err != nil {
		return nil, nil, err
	}
	pruned := Prune(tgt, chains)
	res := &Result{KeptTypes: countTypes(pruned), TotalTypes: countTypes(tgt), Streamable: verdict.Streamable, PlanReason: verdict.Reason}
	psp.Set("kept-types", int64(res.KeptTypes))
	psp.Set("total-types", int64(res.TotalTypes))
	p := &projection{tree: plan.Build(pruned), query: rebase(query, docName), docName: docName}
	if p.bind, res.BindingReason, err = xq.ParseBinding(p.query, docName); err != nil {
		return nil, nil, err
	}
	if p.bind != nil {
		p.at, res.BindingReason = bound(p.tree, p.bind.Steps)
	}
	res.PerBinding = p.at != nil
	return p, res, nil
}

// bound marks the occurrences a binding path reaches from the whole-tree
// path's wrapper. None a step reaches may lie below another: then the
// path binds each emission once, in the order the walk closes them.
func bound(t *plan.Tree, steps []xq.Step) ([]bool, string) {
	var marks []bool
	from := [][]*plan.Node{t.Roots}
	for _, st := range steps {
		var reached []*plan.Node
		for _, kids := range from {
			reached = reach(kids, st, reached)
		}
		marks, from = make([]bool, len(t.Nodes)), from[:0]
		for _, x := range reached {
			marks[x.ID] = true
		}
		for _, x := range reached {
			for y := x.Parent; y != nil; y = y.Parent {
				if marks[y.ID] {
					return nil, fmt.Sprintf("step %s reaches %s inside %s", st.Name, x.TN.Name, y.TN.Name)
				}
			}
			from = append(from, x.Kids)
		}
	}
	return marks, ""
}

// reach appends the element occurrences among kids, and below them for a
// descendant step, whose name st tests.
func reach(kids []*plan.Node, st xq.Step, out []*plan.Node) []*plan.Node {
	for _, k := range kids {
		if !k.Attr && strings.TrimPrefix(k.TN.Name, "@") == st.Name {
			out = append(out, k)
		}
		if st.Descendant {
			out = reach(k.Kids, st, out)
		}
	}
	return out
}

// perBinding evaluates the query on each bound subtree as the walk closes it.
func (p *projection) perBinding(src render.Partners, res *Result, parent *obs.Span) error {
	qsp := parent.Child("query")
	defer qsp.End()
	qsp.Set("per-binding", 1)
	var answer xq.Answer
	nodes, err := render.EmitBindings(p.tree, src, p.at, func(n *xmltree.Node) error { return p.bind.Eval(n, &answer) })
	if err != nil {
		return err
	}
	res.Answer, res.RenderedNodes = answer.String(), nodes
	qsp.Set("nodes-out", int64(nodes))
	qsp.Set("answer-bytes", int64(len(res.Answer)))
	return nil
}

// wholeTree emits the projection into one <xmorph-result> element (the
// query addresses doc(docName), and results are forests) and queries it.
func (p *projection) wholeTree(src render.Partners, res *Result, parent *obs.Span) error {
	rsp := parent.Child("render")
	b := xmltree.NewBuilder().Elem("xmorph-result")
	render.EmitTree(p.tree, src, b)
	wrapped, err := b.End().Document()
	rsp.End()
	if err != nil {
		return err
	}
	rsp.Set("nodes-out", int64(wrapped.Size()-1))
	qsp := parent.Child("query")
	defer qsp.End()
	qsp.Set("per-binding", 0)
	qsp.SetStr("per-binding-refused", res.BindingReason)
	eng := xq.New()
	eng.Bind(p.docName, wrapped)
	if res.Answer, err = eng.QueryXML(p.query); err != nil {
		return err
	}
	res.RenderedNodes = wrapped.Size() - 1
	qsp.Set("answer-bytes", int64(len(res.Answer)))
	return nil
}

// partners opens t's partner source over doc: forward scans when doc is
// stored and t streamable (scanned), closest joins otherwise. done
// releases the scans and reports the storage error the scans or the
// stored document's loads hit, which overrides any other.
func partners(doc render.Source, t *plan.Tree) (src render.Partners, scanned bool, done func() error) {
	d, stored := doc.(*store.Doc)
	if stored && t.Decision().Streamable {
		s := stream.OpenScans(stream.FromDoc(d), t)
		return s, true, func() error {
			defer s.Close()
			return s.Err()
		}
	}
	return render.JoinPartners(doc, t), false, func() error {
		if stored {
			return d.Err()
		}
		return nil
	}
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
// a node survives when it completes a chain — with its whole subtree if
// the query reads the chain's nodes (xq.ExtractPaths), as atomization
// reads descendants — or when some descendant survives. Because
// ExtractPaths does not distinguish child from descendant steps, every
// step is treated as a descendant step — strictly conservative. A
// nil/empty chain set, or a query reading the whole document, keeps
// everything.
func Prune(t *semantics.Target, chains [][]string) *semantics.Target {
	// Here each chain the query reads ends in xq.Subtree.
	active := make([][]string, 0, len(chains))
	for _, ch := range chains {
		if len(ch) == 1 && ch[0] == xq.Subtree {
			return t
		}
		if !xq.Continued(chains, ch) && ch[len(ch)-1] != xq.Subtree {
			ch = append(ch[:len(ch):len(ch)], xq.Subtree)
		}
		active = append(active, ch)
	}
	out := &semantics.Target{}
	for _, r := range t.Roots {
		if kept := pruneNode(r, active); kept != nil {
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
	lbl := label(n.Name)
	var consumed [][]string
	survived := false
	for _, ch := range active {
		if label(ch[0]) != lbl {
			continue
		}
		switch rest := ch[1:]; {
		case len(rest) == 0:
			survived = true // navigated through: the node itself stays
		case rest[0] == xq.Subtree:
			return n.Copy()
		default:
			consumed = append(consumed, rest)
		}
	}
	next := active
	if len(consumed) > 0 {
		// Fresh slice: appending to the caller's backing array would leak
		// suffixes across sibling subtrees.
		next = append(append([][]string(nil), active...), consumed...)
	}
	cp := n.CopyNode()
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

func label(name string) string {
	return strings.ToLower(strings.TrimPrefix(name, "@"))
}
