package loss_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xmorph/internal/guard"
	"xmorph/internal/loss"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// checkTree returns an error naming the first node of t that breaks the
// tree invariant the loss check and Definition 7 rely on: every node is
// reached once, and its parent link names the node it hangs under (for a
// RESTRICT requirement, the node it constrains; nil at a root).
func checkTree(t *semantics.Target) error {
	seen := map[*semantics.TNode]bool{}
	var visit func(n, parent *semantics.TNode) error
	visit = func(n, parent *semantics.TNode) error {
		if seen[n] {
			return fmt.Errorf("%s is reached twice", tname(n))
		}
		seen[n] = true
		if n.Parent() != parent {
			return fmt.Errorf("%s hangs under %s but links to %s", tname(n), tname(parent), tname(n.Parent()))
		}
		for _, k := range append(n.Kids, n.Require...) {
			if err := visit(k, n); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := visit(r, nil); err != nil {
			return err
		}
	}
	return nil
}

func tname(n *semantics.TNode) string {
	if n == nil {
		return "no parent"
	}
	return n.Name + " <- " + n.Source
}

// checkPlanTrees checks every stage target and the composed target.
func checkPlanTrees(p *semantics.Plan) error {
	for i, sp := range p.Stages {
		if err := checkTree(sp.Target); err != nil {
			return fmt.Errorf("stage %d: %v\n%s", i+1, err, sp.Target)
		}
	}
	if err := checkTree(p.ComposedTarget()); err != nil {
		return fmt.Errorf("composed: %v\n%s", err, p.ComposedTarget())
	}
	return nil
}

// sharedB is a document where "a" resolves to root.a and root.b.c.a and
// "b" to four types, one of which, root.b, is closest to both a types.
const sharedB = `<root><a/><b><c><c><b>v5</b></c><a>v7</a></c><c>v9</c><b>v10</b></b><b><b><b><c/></b></b></b></root>`

// TestClosestChildBelowTwoParentsIsCopied: a child type closest to two
// parent types hangs below the first and a copy of it below the second,
// so the target is a tree and the loss check sees each pair once.
func TestClosestChildBelowTwoParentsIsCopied(t *testing.T) {
	p, err := semantics.Compile(guard.MustParse("CAST MORPH a [ b ]"), shape.FromDocument(xmltree.MustParse(sharedB)))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlanTrees(p); err != nil {
		t.Fatal(err)
	}
	r := loss.Analyze(p)
	n := 0
	for _, f := range r.Findings {
		if f.FromType == "root.b" && f.ToType == "root.b.c.a" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d findings root.b ~> root.b.c.a, want 1:\n%s", n, r)
	}
}

// soundnessGuards are TestTheoremSoundness's guards.
var soundnessGuards = []string{
	"CAST MUTATE root",
	"CAST MORPH a [ b ]",
	"CAST MORPH b [ a ]",
	"CAST MORPH root [ a [ c ] b ]",
	"CAST MUTATE a [ b ]",
	"CAST MUTATE b [ c ]",
	"CAST MUTATE (DROP c)",
	"CAST MORPH a [ b [ c ] ]",
	"CAST MUTATE root [ c a ]",
	"CAST MORPH c [ a ] | TRANSLATE c -> k",
}

// TestSoundnessTargetsAreTrees compiles TestTheoremSoundness's guards over
// its documents: every stage target and every composed target is a tree.
func TestSoundnessTargetsAreTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		doc := randomDoc(rng, []string{"a", "b", "c"})
		g := soundnessGuards[trial%len(soundnessGuards)]
		p, err := semantics.Compile(guard.MustParse(g), shape.FromDocument(doc))
		if err != nil {
			continue // the random document may lack the guard's types
		}
		if err := checkPlanTrees(p); err != nil {
			t.Fatalf("trial %d guard %q over %s: %v", trial, g, doc.XML(false), err)
		}
	}
}

// fuzzDoc reads fuzz bytes as a document below <root>: 'a', 'b' and 'c'
// open an element of that label, any other byte closes the open one, and
// only the first 64 bytes count.
func fuzzDoc(data []byte) *xmltree.Document {
	b := xmltree.NewBuilder().Elem("root")
	depth := 0
	for _, c := range data[:min(len(data), 64)] {
		switch {
		case c == 'a' || c == 'b' || c == 'c':
			b.Elem(string(c))
			depth++
		case depth > 0:
			b.End()
			depth--
		}
	}
	for ; depth >= 0; depth-- {
		b.End()
	}
	return b.MustDocument()
}

// FuzzCompile compiles a guard over a small document and checks its loss:
// whatever the guard, compiling and analyzing do not panic, and every
// target a plan holds is a tree.
func FuzzCompile(f *testing.F) {
	for i, g := range soundnessGuards {
		f.Add([]byte("abc/ab/cba//c"[i:]), g)
	}
	f.Add([]byte("a/bccb//a//c/b//bbbc////"), "CAST MORPH a [ b ]") // sharedB
	f.Add([]byte("acacacacac"), "CAST MUTATE a [ CLONE c ]")
	f.Fuzz(func(t *testing.T, data []byte, g string) {
		prog, err := guard.Parse(g)
		if err != nil {
			return
		}
		p, err := semantics.Compile(prog, shape.FromDocument(fuzzDoc(data)))
		if err != nil {
			return
		}
		loss.Analyze(p)
		if err := checkPlanTrees(p); err != nil {
			t.Fatalf("guard %q over %s: %v", g, fuzzDoc(data).XML(false), err)
		}
	})
}
