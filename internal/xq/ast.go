// Package xq is a small XQuery evaluator covering the FLWOR core the paper
// uses for its baseline measurements (Section IX runs eXist queries such as
//
//	for $b in doc("xmark.xml")/site return <data>{$b}</data>
//
// ): path expressions with child/descendant axes and predicates, for/let/
// where/order by/return, element constructors, and a small function
// library (doc, count, distinct-values, string, name, not, exists, concat,
// number). It plays the role of the native XML DBMS baseline; the paper's
// own system never needs it.
package xq

import (
	"fmt"

	"xmorph/internal/xmltree"
)

// Item is one value: *xmltree.Node, string, float64, or bool.
type Item interface{}

// Sequence is the XQuery value: an ordered sequence of items.
type Sequence []Item

// expr is an AST node.
type expr interface {
	eval(ctx *context) (Sequence, error)
}

// flworExpr is a for/let/where/order/return pipeline.
type flworExpr struct {
	clauses []clause
	where   expr
	orderBy []orderSpec
	ret     expr
}

type clause struct {
	isLet bool
	name  string
	in    expr
}

type orderSpec struct {
	key        expr
	descending bool
}

// pathExpr applies steps to a base expression.
type pathExpr struct {
	base  expr
	steps []step
}

type step struct {
	descendant bool // came after //
	attr       bool
	name       string // "*" is a wildcard
	preds      []expr
}

// varRef reads a bound variable.
type varRef struct{ name string }

// literal is a string or numeric constant.
type literal struct{ val Item }

// binaryExpr covers comparison, boolean, and arithmetic operators.
type binaryExpr struct {
	op    string
	left  expr
	right expr
}

// negExpr is unary minus.
type negExpr struct{ operand expr }

// funcCall invokes a built-in function.
type funcCall struct {
	name string
	args []expr
}

// elemConstructor builds a new element.
type elemConstructor struct {
	name    string
	attrs   []attrTemplate
	content []contentPart
}

type attrTemplate struct {
	name  string
	value string
}

// contentPart is literal text or an enclosed expression.
type contentPart struct {
	text string
	expr expr // non-nil for {expr}
}

// seqExpr is the comma operator.
type seqExpr struct{ parts []expr }

// context is one scope frame, linked to the enclosing one: a variable
// binding, and with focus set the context item "." bound to it too.
type context struct {
	name  string
	val   Sequence
	focus bool
	up    *context
	docs  func(name string) (*xmltree.Document, error)
}

// bind opens a frame binding name to val, and "." too when focus is set.
func (c *context) bind(name string, val Sequence, focus bool) *context {
	return &context{name: name, val: val, focus: focus, up: c, docs: c.docs}
}

// Error is an evaluation or parse error.
type Error struct {
	Pos     int
	Message string
}

func (e *Error) Error() string {
	return fmt.Sprintf("xq: %s (offset %d)", e.Message, e.Pos)
}
