package render

import (
	"sync"
	"testing"

	"xmorph/internal/guard"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// TestConcurrentRendersOfOneDocument: renderers sharing one parsed
// document encode and cache its key sequences on first use; goroutines
// doing that at once must each render what a lone renderer does.
func TestConcurrentRendersOfOneDocument(t *testing.T) {
	var targets []*semantics.Target
	var want []string
	for _, g := range []string{"MORPH author [ name book [ title ] ]", "MORPH title [ publisher author ]"} {
		doc := xmltree.MustParse(fig1a)
		p, err := semantics.Compile(guard.MustParse(g), shape.FromDocument(doc))
		if err != nil {
			t.Fatal(err)
		}
		out, err := Render(doc, p.ComposedTarget(), nil)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, p.ComposedTarget())
		want = append(want, out.XML(false))
	}
	shared := xmltree.MustParse(fig1a)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range targets {
				out, err := Render(shared, targets[(i+w)%len(targets)], nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := out.XML(false); got != want[(i+w)%len(targets)] {
					t.Errorf("concurrent render = %s, want %s", got, want[(i+w)%len(targets)])
				}
			}
		}()
	}
	wg.Wait()
}
