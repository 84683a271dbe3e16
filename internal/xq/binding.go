package xq

import (
	"fmt"

	"xmorph/internal/xmltree"
)

// Step is a name step of a binding path, after "//" when Descendant.
type Step struct {
	Name       string
	Descendant bool
}

// Binding is a query answerable one bound node's subtree at a time,
//
//	for $v in doc(D)/s1/.../sn [where W] return R
//
// with name steps only, where W and R read nothing outside that subtree:
// no doc() call, ".." step or union (which needs document numbering).
type Binding struct {
	Steps []Step
	f     *flworExpr
	root  *context
}

// ParseBinding parses q and reports whether it is such a query over the
// document doc() resolves as doc; when it is not, the reason says why.
func ParseBinding(q, doc string) (*Binding, string, error) {
	ast, err := parse(q)
	if err != nil {
		return nil, "", err
	}
	f, ok := ast.(*flworExpr)
	if !ok || len(f.clauses) != 1 || f.clauses[0].isLet || len(f.orderBy) > 0 {
		return nil, "not a for clause without let or order by", nil
	}
	p, _ := f.clauses[0].in.(*pathExpr)
	if p == nil || !docCall(p.base, doc) {
		return nil, fmt.Sprintf("the for clause does not bind a path from doc(%q)", doc), nil
	}
	b := &Binding{f: f, root: &context{}} // no doc() call is left to resolve
	for _, st := range p.steps {
		if st.attr || st.name == "*" || st.name == "text()" || len(st.preds) > 0 {
			return nil, "the binding path has a step other than a name test", nil
		}
		b.Steps = append(b.Steps, Step{Name: st.name, Descendant: st.descendant})
	}
	// The binding path holds the query's one doc() call.
	if c := collect(f); c.docs > 1 || c.up {
		return nil, `doc(), ".." or union in where or return`, nil
	}
	return b, "", nil
}

// docCall reports whether e is doc(name).
func docCall(e expr, name string) bool {
	call, ok := e.(*funcCall)
	if !ok || call.name != "doc" || len(call.args) != 1 {
		return false
	}
	lit, ok := call.args[0].(*literal)
	return ok && lit.val == name
}

// Eval evaluates the where and return clauses with the variable and "."
// bound to n, and adds the items to a.
func (b *Binding) Eval(n *xmltree.Node, a *Answer) error {
	_, vals, ok, err := b.f.tuple(b.root.bind(b.f.clauses[0].name, Sequence{n}, true))
	if ok {
		a.Add(vals)
	}
	return err
}
