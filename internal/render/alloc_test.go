package render

import (
	"testing"

	"xmorph/internal/closest"
	"xmorph/internal/guard"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// TestClosestOfCachedEdgeZeroAllocs extends PR 1's alloc guards to the
// CSR join cache: once an edge's join is cached, closestOf must be a
// pure array lookup — no per-parent map entries, no slice headers, no
// hashing. This is the bound behind the "render allocs/op reduced"
// acceptance criterion.
func TestClosestOfCachedEdgeZeroAllocs(t *testing.T) {
	doc := xmltree.MustParse(fig1a)
	r := &renderer{doc: doc, joins: map[joinKey]*closest.Grouped{}}
	books := doc.NodesOfType("data.book")
	// First call builds and caches the join.
	if got := r.closestOf(books[0], "data.book.title"); len(got) != 1 {
		t.Fatalf("closest titles of first book = %d", len(got))
	}
	sink := 0
	allocs := testing.AllocsPerRun(500, func() {
		for _, b := range books {
			sink += len(r.closestOf(b, "data.book.title"))
		}
	})
	if allocs != 0 {
		t.Errorf("closestOf over a cached edge allocates %v per run, want 0", allocs)
	}
}

// BenchmarkClosestOfCached measures the cached-edge lookup the renderer
// performs once per emitted node; the hotpath suite records its
// allocs/op next to BenchmarkClosestOfMapCache's.
func BenchmarkClosestOfCached(b *testing.B) {
	doc := xmltree.MustParse(fig1a)
	r := &renderer{doc: doc, joins: map[joinKey]*closest.Grouped{}}
	books := doc.NodesOfType("data.book")
	r.closestOf(books[0], "data.book.title")
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, v := range books {
			sink += len(r.closestOf(v, "data.book.title"))
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
