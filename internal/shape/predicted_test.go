package shape_test

import (
	"testing"

	"xmorph/internal/guard"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// predicted returns the predicted adorned shape (Definition 7) of guard
// over the source shape of Fig5e, as the compiler computes it.
func predicted(t *testing.T, guardSrc string) *shape.Shape {
	t.Helper()
	src := shape.FromDocument(xmltree.MustParse(shape.Fig5e))
	p, err := semantics.Compile(guard.MustParse(guardSrc), src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", guardSrc, err)
	}
	return p.Final().Output
}

func TestPredicted(t *testing.T) {
	// Each target edge carries the source path cardinality: author V has
	// two books, author U one; every book has one title.
	p := predicted(t, "MORPH author [ name book [ title ] ]")
	if c, ok := p.Card("author", "author.book"); !ok || c != (shape.Card{Min: 1, Max: 2}) {
		t.Errorf("predicted card author->book = %s %v, want 1..2", c, ok)
	}
	if c, ok := p.Card("author.book", "author.book.title"); !ok || c != shape.One {
		t.Errorf("predicted card book->title = %s %v, want 1..1", c, ok)
	}
}

func TestPredictedRearranged(t *testing.T) {
	// author [ title ] skips book: the source path author ~> title has
	// card 1..2.
	p := predicted(t, "MORPH author [ title ]")
	if c, ok := p.Card("author", "author.title"); !ok || c != (shape.Card{Min: 1, Max: 2}) {
		t.Errorf("predicted card author->title = %s %v, want 1..2", c, ok)
	}
}
