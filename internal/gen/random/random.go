// Package random generates small random documents for differential
// tests: the same seed gives every test that uses it the same documents.
package random

import (
	"fmt"
	"math/rand"

	"xmorph/internal/xmltree"
)

// Doc builds a random document over a fixed name alphabet: a root r,
// at most four levels of elements a–d below it, attributes and text on
// any of them.
func Doc(rng *rand.Rand) *xmltree.Document {
	b := xmltree.NewBuilder()
	var build func(depth int)
	names := []string{"a", "b", "c", "d"}
	build = func(depth int) {
		if rng.Intn(3) == 0 {
			b.Attr(names[rng.Intn(len(names))], fmt.Sprintf("v%d", rng.Intn(10)))
		}
		if rng.Intn(2) == 0 {
			b.Text(fmt.Sprintf("t%d", rng.Intn(100)))
		}
		if depth < 4 {
			for i := rng.Intn(4); i > 0; i-- {
				b.Elem(names[rng.Intn(len(names))])
				build(depth + 1)
				b.End()
			}
		}
	}
	b.Elem("r")
	build(1)
	b.End()
	return b.MustDocument()
}
