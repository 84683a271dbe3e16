package xq

import (
	"fmt"
	"math"
	"strings"

	"xmorph/internal/xmltree"
)

// ifExpr is if (cond) then a else b.
type ifExpr struct {
	cond expr
	then expr
	els  expr
}

func (e *ifExpr) eval(ctx *context) (Sequence, error) {
	c, err := e.cond.eval(ctx)
	if err != nil {
		return nil, err
	}
	b, err := booleanValue(c)
	if err != nil {
		return nil, err
	}
	if b {
		return e.then.eval(ctx)
	}
	return e.els.eval(ctx)
}

// quantExpr is "some $v in e satisfies p" / "every $v in e satisfies p".
type quantExpr struct {
	every bool
	name  string
	in    expr
	sat   expr
}

func (e *quantExpr) eval(ctx *context) (Sequence, error) {
	seq, err := e.in.eval(ctx)
	if err != nil {
		return nil, err
	}
	for _, item := range seq {
		v, err := e.sat.eval(ctx.bind(e.name, Sequence{item}, true))
		if err != nil {
			return nil, err
		}
		b, err := booleanValue(v)
		if err != nil {
			return nil, err
		}
		if e.every && !b {
			return Sequence{false}, nil
		}
		if !e.every && b {
			return Sequence{true}, nil
		}
	}
	return Sequence{e.every}, nil
}

// unionExpr is the "|" node-set union, in document order with duplicates
// removed.
type unionExpr struct {
	left  expr
	right expr
}

func (e *unionExpr) eval(ctx *context) (Sequence, error) {
	lv, err := e.left.eval(ctx)
	if err != nil {
		return nil, err
	}
	rv, err := e.right.eval(ctx)
	if err != nil {
		return nil, err
	}
	seen := map[*xmltree.Node]bool{}
	var nodes []*xmltree.Node
	for _, item := range append(append(Sequence{}, lv...), rv...) {
		n, ok := item.(*xmltree.Node)
		if !ok {
			return nil, &Error{Message: "union operands must be node sequences"}
		}
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	// Document order within one document; stable across documents.
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j].Dewey.Compare(nodes[j-1].Dewey) < 0; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	out := make(Sequence, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out, nil
}

// parentStep is the ".." axis applied to a sequence.
type parentStep struct{ base expr }

func (e *parentStep) eval(ctx *context) (Sequence, error) {
	v, err := e.base.eval(ctx)
	if err != nil {
		return nil, err
	}
	seen := map[*xmltree.Node]bool{}
	var out Sequence
	for _, item := range v {
		if n, ok := item.(*xmltree.Node); ok && n.Parent != nil && !seen[n.Parent] {
			seen[n.Parent] = true
			out = append(out, n.Parent)
		}
	}
	return out, nil
}

// function is one entry of the function library: the argument counts it
// accepts and its implementation over the evaluated arguments. funcCall
// checks the count against [min, max] before any argument is evaluated,
// so call may index args up to min-1 freely.
type function struct {
	min, max int
	call     func(ctx *context, args []Sequence) (Sequence, error)
}

// variadic as a function's max accepts any number of arguments.
const variadic = -1

func arityMessage(name string, f function, got int) string {
	switch {
	case f.min == f.max:
		return fmt.Sprintf("%s() takes %d argument(s), got %d", name, f.min, got)
	case f.max == variadic:
		return fmt.Sprintf("%s() needs at least %d argument(s), got %d", name, f.min, got)
	}
	return fmt.Sprintf("%s() takes %d to %d arguments, got %d", name, f.min, f.max, got)
}

// unary adapts a one-argument implementation that needs no context.
func unary(call func(arg Sequence) (Sequence, error)) function {
	return function{min: 1, max: 1, call: func(_ *context, args []Sequence) (Sequence, error) {
		return call(args[0])
	}}
}

// str1 adapts a string -> item function of one argument.
func str1(call func(s string) Item) function {
	return unary(func(arg Sequence) (Sequence, error) {
		return Sequence{call(stringValue(atomize(one(arg))))}, nil
	})
}

// num1 adapts a number -> number function of one argument.
func num1(call func(f float64) float64) function {
	return unary(func(arg Sequence) (Sequence, error) {
		f, err := numberValue(arg)
		if err != nil {
			return nil, err
		}
		return Sequence{call(f)}, nil
	})
}

// str2 adapts a (string, string) -> bool predicate.
func str2(call func(a, b string) bool) function {
	return function{min: 2, max: 2, call: func(_ *context, args []Sequence) (Sequence, error) {
		return Sequence{call(stringValue(atomize(one(args[0]))), stringValue(atomize(one(args[1]))))}, nil
	}}
}

// constant is a function of no arguments answering v.
func constant(v Item) function {
	return function{call: func(*context, []Sequence) (Sequence, error) { return Sequence{v}, nil }}
}

// extreme is min() or max(): the best numeric item under better, or the
// empty sequence.
func extreme(name string, better func(a, b float64) bool) function {
	return unary(func(arg Sequence) (Sequence, error) {
		var best float64
		for i, item := range arg {
			f, ok := toFloat(atomize(item))
			if !ok {
				return nil, &Error{Message: name + "(): non-numeric item"}
			}
			if i == 0 || better(f, best) {
				best = f
			}
		}
		if len(arg) == 0 {
			return nil, nil
		}
		return Sequence{best}, nil
	})
}

// sumOf adds the numeric items of a sequence.
func sumOf(name string, arg Sequence) (float64, error) {
	total := 0.0
	for _, item := range arg {
		f, ok := toFloat(atomize(item))
		if !ok {
			return 0, &Error{Message: name + "(): non-numeric item"}
		}
		total += f
	}
	return total, nil
}

// functions is the whole function library.
var functions = map[string]function{
	"doc": {min: 1, max: 1, call: func(ctx *context, args []Sequence) (Sequence, error) {
		name, _ := atomize(one(args[0])).(string)
		d, err := ctx.docs(name)
		if err != nil {
			return nil, err
		}
		var out Sequence
		for _, r := range d.Roots {
			out = append(out, r)
		}
		return out, nil
	}},
	"count":  unary(func(arg Sequence) (Sequence, error) { return Sequence{float64(len(arg))}, nil }),
	"exists": unary(func(arg Sequence) (Sequence, error) { return Sequence{len(arg) > 0}, nil }),
	"empty":  unary(func(arg Sequence) (Sequence, error) { return Sequence{len(arg) == 0}, nil }),
	"not": unary(func(arg Sequence) (Sequence, error) {
		b, err := booleanValue(arg)
		if err != nil {
			return nil, err
		}
		return Sequence{!b}, nil
	}),
	"string": unary(func(arg Sequence) (Sequence, error) {
		if len(arg) == 0 {
			return Sequence{""}, nil
		}
		return Sequence{stringValue(arg[0])}, nil
	}),
	"number": num1(func(f float64) float64 { return f }),
	"name": unary(func(arg Sequence) (Sequence, error) {
		if n, ok := one(arg).(*xmltree.Node); ok {
			return Sequence{n.LocalName()}, nil
		}
		return Sequence{""}, nil
	}),
	"concat": {min: 0, max: variadic, call: func(_ *context, args []Sequence) (Sequence, error) {
		var b strings.Builder
		for _, a := range args {
			for _, item := range a {
				b.WriteString(stringValue(item))
			}
		}
		return Sequence{b.String()}, nil
	}},
	"distinct-values": unary(func(arg Sequence) (Sequence, error) {
		seen := map[string]bool{}
		var out Sequence
		for _, item := range arg {
			s := stringValue(item)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out, nil
	}),
	"sum": unary(func(arg Sequence) (Sequence, error) {
		total, err := sumOf("sum", arg)
		if err != nil {
			return nil, err
		}
		return Sequence{total}, nil
	}),
	"avg": unary(func(arg Sequence) (Sequence, error) {
		if len(arg) == 0 {
			return nil, nil
		}
		total, err := sumOf("avg", arg)
		if err != nil {
			return nil, err
		}
		return Sequence{total / float64(len(arg))}, nil
	}),
	"min":             extreme("min", func(a, b float64) bool { return a < b }),
	"max":             extreme("max", func(a, b float64) bool { return a > b }),
	"floor":           num1(math.Floor),
	"ceiling":         num1(math.Ceil),
	"round":           num1(math.Round),
	"abs":             num1(math.Abs),
	"contains":        str2(strings.Contains),
	"starts-with":     str2(strings.HasPrefix),
	"ends-with":       str2(strings.HasSuffix),
	"string-length":   str1(func(s string) Item { return float64(len(s)) }),
	"normalize-space": str1(func(s string) Item { return strings.Join(strings.Fields(s), " ") }),
	"upper-case":      str1(func(s string) Item { return strings.ToUpper(s) }),
	"lower-case":      str1(func(s string) Item { return strings.ToLower(s) }),
	"substring": {min: 2, max: 3, call: func(_ *context, args []Sequence) (Sequence, error) {
		s := stringValue(atomize(one(args[0])))
		start, err := numberValue(args[1])
		if err != nil {
			return nil, err
		}
		from := min(max(int(start)-1, 0), len(s))
		if len(args) < 3 {
			return Sequence{s[from:]}, nil
		}
		length, err := numberValue(args[2])
		if err != nil {
			return nil, err
		}
		to := max(min(from+int(length), len(s)), from)
		return Sequence{s[from:to]}, nil
	}},
	"true":  constant(true),
	"false": constant(false),
	"last": {call: func(*context, []Sequence) (Sequence, error) {
		return nil, &Error{Message: "last() is not supported; use count() over a bound sequence"}
	}},
}
