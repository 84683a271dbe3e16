package xq

import (
	"maps"
	"slices"
)

// ExtractPaths returns the label chains a query's path expressions
// traverse, rooted at doc() calls: the raw material for guard inference
// (the paper's Section X names inferring a guard from a query as an open
// problem; internal/infer builds on this extraction) and for pruning a
// guard's output to what the query can read (internal/logical).
//
// Each chain lists element labels from the document root downward;
// attribute steps keep their "@". Wildcards and text() steps end a chain.
// Variable bindings extend the chain of the expression they iterate.
// Every prefix of a chain is a chain too. The query reads the nodes of a
// chain no other chain continues; it only navigates through those of a
// chain others continue (a for variable used as a path base, a step
// prefix) unless that chain followed by Subtree is listed too.
func ExtractPaths(query string) ([][]string, error) {
	ast, err := parse(query)
	if err != nil {
		return nil, err
	}
	c := collect(ast)
	for _, r := range c.reads {
		if len(r) == 0 || Continued(c.paths, r) {
			c.record(append(r[:len(r):len(r)], Subtree))
		}
	}
	return c.paths, nil
}

// Subtree ends a chain whose nodes the query reads (returns, atomizes,
// counts, compares, copies, steps into with * or text()) although other
// chains continue it. Alone, it says the query reads the whole document.
const Subtree = "**"

type pathCollector struct {
	env   map[string][]string
	paths [][]string
	reads [][]string // chains whose nodes the query reads
	docs  int        // doc() calls
	up    bool       // a ".." step or a union: parents or document order read
}

// Continued reports whether some chain goes on past ch.
func Continued(chains [][]string, ch []string) bool {
	for _, c := range chains {
		if len(c) > len(ch) && slices.Equal(c[:len(ch)], ch) {
			return true
		}
	}
	return false
}

// collect walks a whole query.
func collect(ast expr) *pathCollector {
	c := &pathCollector{env: map[string][]string{}}
	c.walk(ast, nil)
	return c
}

// read notes that the query reads the nodes on chain (nil: not a path).
func (c *pathCollector) read(chain []string) {
	if chain != nil {
		c.reads = append(c.reads, chain)
	}
}

// record notes a traversed chain (deduplicated, prefix chains included so
// the tree builder sees interior labels).
func (c *pathCollector) record(chain []string) {
	same := func(p []string) bool { return slices.Equal(p, chain) }
	if len(chain) > 0 && !slices.ContainsFunc(c.paths, same) {
		c.paths = append(c.paths, append([]string(nil), chain...))
	}
}

// chainOf resolves the chain an expression's result nodes sit on, or nil
// when the expression is not a path (literals, arithmetic, ...). It also
// records every chain it resolves.
func (c *pathCollector) chainOf(e expr) []string {
	switch x := e.(type) {
	case *varRef:
		return c.env[x.name]
	case *funcCall:
		if x.name == "doc" {
			c.docs++
			return []string{} // the document root: an empty, non-nil chain
		}
		for _, a := range x.args {
			c.walk(a, nil)
		}
		return nil
	case *pathExpr:
		base := c.chainOf(x.base)
		if base == nil {
			c.walk(x.base, nil)
			base = []string{}
		}
		chain := append([]string(nil), base...)
		for i, st := range x.steps {
			if st.name == "*" || st.name == "text()" {
				// Below, "." is unknown: the predicates' relative paths
				// resolve from the root, at any depth.
				c.read(chain)
				for _, rest := range x.steps[i:] {
					c.preds(rest, nil)
				}
				break
			}
			name := st.name
			if st.attr {
				name = "@" + name
			}
			chain = append(chain, name)
			c.record(chain)
			c.preds(st, append([]string(nil), chain...))
		}
		return chain
	case *parentStep:
		c.up = true
		base := c.chainOf(x.base)
		if len(base) > 0 {
			return base[:len(base)-1]
		}
		return base
	case *unionExpr:
		c.up = true
		c.chainOf(x.left)
		c.chainOf(x.right)
		return nil
	}
	c.walk(e, nil)
	return nil
}

// walk visits an expression tree whose value the query reads; ctx is the
// chain "." resolves to.
func (c *pathCollector) walk(e expr, ctx []string) {
	switch x := e.(type) {
	case nil:
	case *flworExpr:
		saved := maps.Clone(c.env)
		for _, cl := range x.clauses {
			chain := c.chainOf(cl.in)
			if chain != nil {
				c.env[cl.name] = chain
				c.env["."] = chain
			} else {
				delete(c.env, cl.name)
			}
		}
		c.walk(x.where, c.env["."])
		for _, o := range x.orderBy {
			c.walk(o.key, c.env["."])
		}
		c.walk(x.ret, c.env["."])
		c.env = saved
	case *quantExpr:
		saved := maps.Clone(c.env)
		chain := c.chainOf(x.in)
		if chain != nil {
			c.env[x.name] = chain
			c.env["."] = chain
		}
		c.walk(x.sat, c.env["."])
		c.env = saved
	case *pathExpr, *parentStep, *funcCall:
		c.read(c.chainOf(x))
	case *unionExpr:
		c.up = true
		c.walk(x.left, ctx)
		c.walk(x.right, ctx)
	case *varRef:
		c.read(c.env[x.name])
	case *binaryExpr:
		c.walk(x.left, ctx)
		c.walk(x.right, ctx)
	case *negExpr:
		c.walk(x.operand, ctx)
	case *ifExpr:
		c.walk(x.cond, ctx)
		c.walk(x.then, ctx)
		c.walk(x.els, ctx)
	case *seqExpr:
		for _, p := range x.parts {
			c.walk(p, ctx)
		}
	case *elemConstructor:
		for _, part := range x.content {
			if part.expr != nil {
				c.walk(part.expr, ctx)
			}
		}
	}
}

// preds walks a step's predicates, inside which "." (and bare relative
// steps) resolve to chain.
func (c *pathCollector) preds(st step, chain []string) {
	saved := maps.Clone(c.env)
	for _, pred := range st.preds {
		c.env["."] = chain
		c.walk(pred, chain)
	}
	c.env = saved
}
