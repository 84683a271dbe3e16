package xq

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"xmorph/internal/xmltree"
)

func (e *flworExpr) eval(ctx *context) (Sequence, error) {
	type tupleOut struct {
		keys []Item
		vals Sequence
	}
	var outs []tupleOut

	var iterate func(ctx *context, i int) error
	iterate = func(ctx *context, i int) error {
		if i == len(e.clauses) {
			keys, vals, ok, err := e.tuple(ctx)
			if ok {
				outs = append(outs, tupleOut{keys: keys, vals: vals})
			}
			return err
		}
		cl := e.clauses[i]
		seq, err := cl.in.eval(ctx)
		if err != nil {
			return err
		}
		if cl.isLet {
			return iterate(ctx.bind(cl.name, seq, false), i+1)
		}
		for _, item := range seq {
			if err := iterate(ctx.bind(cl.name, Sequence{item}, true), i+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := iterate(ctx, 0); err != nil {
		return nil, err
	}

	if len(e.orderBy) > 0 {
		sort.SliceStable(outs, func(a, b int) bool {
			for k, spec := range e.orderBy {
				c := orderItems(outs[a].keys[k], outs[b].keys[k])
				if c == 0 {
					continue
				}
				if spec.descending {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	var result Sequence
	for _, o := range outs {
		result = append(result, o.vals...)
	}
	return result, nil
}

// tuple evaluates the where clause, the order-by keys and the return
// clause for one tuple of bindings; ok is false when where rejects it.
func (e *flworExpr) tuple(ctx *context) (keys []Item, vals Sequence, ok bool, err error) {
	if e.where != nil {
		cond, err := e.where.eval(ctx)
		if err != nil {
			return nil, nil, false, err
		}
		if ok, err := booleanValue(cond); err != nil || !ok {
			return nil, nil, false, err
		}
	}
	for _, spec := range e.orderBy {
		kv, err := spec.key.eval(ctx)
		if err != nil {
			return nil, nil, false, err
		}
		if len(kv) == 0 {
			keys = append(keys, "")
		} else {
			keys = append(keys, atomize(kv[0]))
		}
	}
	vals, err = e.ret.eval(ctx)
	return keys, vals, err == nil, err
}

func (e *pathExpr) eval(ctx *context) (Sequence, error) {
	cur, err := e.base.eval(ctx)
	if err != nil {
		return nil, err
	}
	for _, st := range e.steps {
		var next Sequence
		for _, item := range cur {
			n, ok := item.(*xmltree.Node)
			if !ok {
				continue
			}
			if st.name == "text()" {
				next = append(next, n.Value)
				continue
			}
			matches := func(c *xmltree.Node) bool {
				if c.Attr != st.attr {
					return false
				}
				return st.name == "*" || c.LocalName() == st.name
			}
			if st.descendant {
				n.Walk(func(c *xmltree.Node) bool {
					if c != n && matches(c) {
						next = append(next, c)
					}
					return true
				})
			} else {
				for _, c := range n.Children {
					if matches(c) {
						next = append(next, c)
					}
				}
			}
		}
		cur, err = applyPredicates(ctx, next, st.preds)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func applyPredicates(ctx *context, seq Sequence, preds []expr) (Sequence, error) {
	for _, pred := range preds {
		var kept Sequence
		for pos, item := range seq {
			v, err := pred.eval(ctx.bind(".", Sequence{item}, false))
			if err != nil {
				return nil, err
			}
			// Numeric predicate: positional (1-based).
			if len(v) == 1 {
				if f, ok := v[0].(float64); ok {
					if int(f) == pos+1 {
						kept = append(kept, item)
					}
					continue
				}
			}
			ok, err := booleanValue(v)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, item)
			}
		}
		seq = kept
	}
	return seq, nil
}

// eval finds the innermost frame binding the variable.
func (e *varRef) eval(ctx *context) (Sequence, error) {
	for f := ctx; f.up != nil; f = f.up {
		if f.name == e.name || (f.focus && e.name == ".") {
			return f.val, nil
		}
	}
	return nil, &Error{Message: fmt.Sprintf("undefined variable $%s", e.name)}
}

func (e *literal) eval(ctx *context) (Sequence, error) {
	return Sequence{e.val}, nil
}

func (e *seqExpr) eval(ctx *context) (Sequence, error) {
	var out Sequence
	for _, p := range e.parts {
		v, err := p.eval(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (e *negExpr) eval(ctx *context) (Sequence, error) {
	v, err := e.operand.eval(ctx)
	if err != nil {
		return nil, err
	}
	f, err := numberValue(v)
	if err != nil {
		return nil, err
	}
	return Sequence{-f}, nil
}

func (e *binaryExpr) eval(ctx *context) (Sequence, error) {
	switch e.op {
	case "and", "or":
		lv, err := e.left.eval(ctx)
		if err != nil {
			return nil, err
		}
		lb, err := booleanValue(lv)
		if err != nil {
			return nil, err
		}
		if e.op == "and" && !lb {
			return Sequence{false}, nil
		}
		if e.op == "or" && lb {
			return Sequence{true}, nil
		}
		rv, err := e.right.eval(ctx)
		if err != nil {
			return nil, err
		}
		rb, err := booleanValue(rv)
		if err != nil {
			return nil, err
		}
		return Sequence{rb}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		lv, err := e.left.eval(ctx)
		if err != nil {
			return nil, err
		}
		rv, err := e.right.eval(ctx)
		if err != nil {
			return nil, err
		}
		// General comparison: existential over atomized items.
		for _, a := range lv {
			for _, b := range rv {
				if c, ok := compareItems(atomize(a), atomize(b)); ok && cmpSatisfies(e.op, c) || !ok && e.op == "!=" {
					return Sequence{true}, nil
				}
			}
		}
		return Sequence{false}, nil
	case "+", "-", "*", "div", "mod":
		lv, err := e.left.eval(ctx)
		if err != nil {
			return nil, err
		}
		rv, err := e.right.eval(ctx)
		if err != nil {
			return nil, err
		}
		lf, err := numberValue(lv)
		if err != nil {
			return nil, err
		}
		rf, err := numberValue(rv)
		if err != nil {
			return nil, err
		}
		switch e.op {
		case "+":
			return Sequence{lf + rf}, nil
		case "-":
			return Sequence{lf - rf}, nil
		case "*":
			return Sequence{lf * rf}, nil
		case "div":
			return Sequence{lf / rf}, nil
		default:
			return Sequence{math.Mod(lf, rf)}, nil
		}
	}
	return nil, &Error{Message: fmt.Sprintf("unknown operator %q", e.op)}
}

func cmpSatisfies(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func (e *funcCall) eval(ctx *context) (Sequence, error) {
	f, ok := functions[e.name]
	if !ok {
		return nil, &Error{Message: fmt.Sprintf("unknown function %s()", e.name)}
	}
	if n := len(e.args); n < f.min || (f.max != variadic && n > f.max) {
		return nil, &Error{Message: arityMessage(e.name, f, n)}
	}
	args := make([]Sequence, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return f.call(ctx, args)
}

func (e *elemConstructor) eval(ctx *context) (Sequence, error) {
	b := xmltree.NewBuilder().Elem(e.name)
	for _, a := range e.attrs {
		b.Attr(a.name, a.value)
	}
	for _, part := range e.content {
		if part.expr == nil {
			if t := strings.TrimSpace(part.text); t != "" {
				b.Text(part.text)
			}
			continue
		}
		v, err := part.expr.eval(ctx)
		if err != nil {
			return nil, err
		}
		for i, item := range v {
			switch x := item.(type) {
			case *xmltree.Node:
				copyInto(b, x)
			default:
				if i > 0 {
					b.Text(" ")
				}
				b.Text(stringValue(item))
			}
		}
	}
	doc, err := b.End().Document()
	if err != nil {
		return nil, &Error{Message: err.Error()}
	}
	return Sequence{doc.Root()}, nil
}

// copyInto deep-copies a node (subtree) into the builder.
func copyInto(b *xmltree.Builder, n *xmltree.Node) {
	if n.Attr {
		b.Attr(n.LocalName(), n.Value)
		return
	}
	b.Elem(n.Name)
	if n.Value != "" {
		b.Text(n.Value)
	}
	for _, c := range n.Children {
		copyInto(b, c)
	}
	b.End()
}

// --- value coercions ---

func one(s Sequence) Item {
	if len(s) == 0 {
		return nil
	}
	return s[0]
}

// atomize turns a node into its string value.
func atomize(i Item) Item {
	if n, ok := i.(*xmltree.Node); ok {
		return n.Text()
	}
	return i
}

// compareItems compares two atomized items, numerically when both parse as
// numbers, else as strings. ok is false when a numeric comparison has a
// NaN operand: NaN is unordered, unequal even to itself, so such a pair
// satisfies only "!=".
func compareItems(a, b Item) (c int, ok bool) {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		case af == bf:
			return 0, true
		}
		return 0, false
	}
	return strings.Compare(stringValue(a), stringValue(b)), true
}

// orderItems is order by's comparison: compareItems, with NaN keys equal
// to each other and ahead of every number, so that the sort's order
// stays a strict weak order.
func orderItems(a, b Item) int {
	if c, ok := compareItems(a, b); ok {
		return c
	}
	af, _ := toFloat(a)
	bf, _ := toFloat(b)
	switch {
	case math.IsNaN(af) && math.IsNaN(bf):
		return 0
	case math.IsNaN(af):
		return -1
	}
	return 1
}

func toFloat(i Item) (float64, bool) {
	switch x := i.(type) {
	case float64:
		return x, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		return f, err == nil
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func stringValue(i Item) string {
	switch x := i.(type) {
	case nil:
		return ""
	case string:
		return x
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case *xmltree.Node:
		return x.Text()
	}
	return fmt.Sprint(i)
}

// booleanValue is XQuery's effective boolean value.
func booleanValue(s Sequence) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if _, isNode := s[0].(*xmltree.Node); isNode {
		return true, nil
	}
	if len(s) > 1 {
		return false, &Error{Message: "effective boolean value of multi-item non-node sequence"}
	}
	switch x := s[0].(type) {
	case bool:
		return x, nil
	case float64:
		return x != 0 && !math.IsNaN(x), nil
	case string:
		return x != "", nil
	}
	return false, &Error{Message: "no effective boolean value"}
}

func numberValue(s Sequence) (float64, error) {
	if len(s) == 0 {
		return math.NaN(), nil
	}
	f, ok := toFloat(atomize(s[0]))
	if !ok {
		return 0, &Error{Message: fmt.Sprintf("cannot convert %q to a number", stringValue(s[0]))}
	}
	return f, nil
}
