package render

import (
	"testing"

	"xmorph/internal/guard"
	"xmorph/internal/plan"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// cachedEdge returns the join-backed partners of MORPH book [ title ]
// over Figure 1(a), the title occurrence, and the book vertices, with
// the book-to-title join already run by a first Seek.
func cachedEdge(tb testing.TB) (Partners, *plan.Node, []Vertex) {
	doc := xmltree.MustParse(fig1a)
	p, err := semantics.Compile(guard.MustParse("MORPH book [ title ]"), shape.FromDocument(doc))
	if err != nil {
		tb.Fatal(err)
	}
	t := plan.Build(p.ComposedTarget())
	src := JoinPartners(doc, t)
	books := doc.SeqOfType("data.book")
	vs := make([]Vertex, books.Len())
	for i := range vs {
		vs[i] = Vertex{Node: books.Node(i), Dewey: books.Key(i), Ord: i}
	}
	title := t.Roots[0].Kids[0]
	if src.Seek(title, &vs[0]) == nil || src.Next(title) != nil {
		tb.Fatal("the first book should have one closest title")
	}
	return src, title, vs
}

// TestClosestOfCachedEdgeZeroAllocs: once an occurrence's join has run,
// enumerating a vertex's partners is an index into the occurrence's own
// grouped join — no map probe, no hashing, no allocation.
func TestClosestOfCachedEdgeZeroAllocs(t *testing.T) {
	src, title, books := cachedEdge(t)
	sink := 0
	allocs := testing.AllocsPerRun(500, func() {
		for i := range books {
			for v := src.Seek(title, &books[i]); v != nil; v = src.Next(title) {
				sink++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("partners over a cached edge allocate %v per run, want 0", allocs)
	}
}

// BenchmarkClosestOfCached measures the cached-edge lookup the renderer
// performs once per emitted node.
func BenchmarkClosestOfCached(b *testing.B) {
	src, title, books := cachedEdge(b)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for j := range books {
			for v := src.Seek(title, &books[j]); v != nil; v = src.Next(title) {
				sink++
			}
		}
	}
	_ = sink
}

// BenchmarkRenderCachedJoins renders a small target end to end through
// the CSR join cache.
func BenchmarkRenderCachedJoins(b *testing.B) {
	doc := xmltree.MustParse(fig1a)
	plan, err := semantics.Compile(guard.MustParse("MORPH author [ name book [ title ] ]"), shape.FromDocument(doc))
	if err != nil {
		b.Fatal(err)
	}
	tgt := plan.ComposedTarget()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Render(doc, tgt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
