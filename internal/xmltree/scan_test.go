package xmltree_test

import (
	"math/rand"
	"strings"
	"testing"

	"xmorph/internal/gen/random"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/xmltree"
)

// TestScanAgainstReference runs the FuzzScan differential over the
// documents the store's Shred-against-Parse differential reads: 200
// seeded random documents and XMark sf 0.02.
func TestScanAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		xmltree.CheckScan(t, []byte(random.Doc(rng).XML(false)))
	}
	xmltree.CheckScan(t, []byte(xmark.Generate(xmark.Config{Factor: 0.02, Seed: 1}).XML(false)))
}

// TestParseAllocsPerNode guards Parse — the scan and the tree it builds —
// on the XMark sf 0.02 document: at most 6 allocations per node.
func TestParseAllocsPerNode(t *testing.T) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	var nodes int
	allocs := testing.AllocsPerRun(1, func() {
		d, err := xmltree.Parse(strings.NewReader(xml))
		if err != nil {
			t.Fatal(err)
		}
		nodes = d.Size()
	})
	perNode := allocs / float64(nodes)
	t.Logf("%d nodes, %.1f allocations per node", nodes, perNode)
	if perNode > 6 {
		t.Errorf("parse: %.1f allocations per node, want <= 6", perNode)
	}
}
