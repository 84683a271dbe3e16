package core

import (
	"strings"
	"testing"

	"xmorph/internal/closest"
	"xmorph/internal/gen/dblp"
	"xmorph/internal/gen/nasa"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// TestIntegrationBattery runs a battery of guards over all three generated
// corpora, through both the in-memory and the stored pipeline, and checks
// the cross-cutting invariants: both pipelines agree, values are
// preserved, and every rendered parent/child pair is closest in the
// source.
func TestIntegrationBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration battery is slow")
	}
	corpora := []struct {
		name   string
		doc    *xmltree.Document
		guards []string
	}{
		{
			name: "dblp",
			doc:  dblp.Generate(dblp.Config{Publications: 300, Seed: 11}),
			guards: []string{
				"CAST MORPH author [ title [ year ] ]",
				"CAST MORPH dblp [ article [ author title ] ]",
				"CAST MUTATE article [ year [ title ] ]",
				"CAST MORPH author | TRANSLATE author -> writer",
			},
		},
		{
			name: "nasa",
			doc:  nasa.Generate(nasa.Config{Datasets: 60, Seed: 11}),
			guards: []string{
				"CAST MORPH dataset [ title author [ lastname ] ]",
				"CAST MUTATE (DROP tableHead)",
				"CAST MORPH (RESTRICT dataset [ reference ]) [ title ]",
			},
		},
		{
			name: "xmark",
			doc:  xmark.Generate(xmark.Config{Factor: 0.004, Seed: 11}),
			guards: []string{
				"CAST MORPH person [ name emailaddress ]",
				"CAST MORPH open_auction [ initial current itemref [ @item ] ]",
				"CAST-WIDENING MUTATE (NEW listing) [ open_auction ]",
			},
		},
	}

	for _, c := range corpora {
		st := store.OpenMemory()
		if _, err := st.Shred(c.name, strings.NewReader(c.doc.XML(false)), nil); err != nil {
			t.Fatalf("%s: shred: %v", c.name, err)
		}
		for _, g := range c.guards {
			mem, err := Transform(g, c.doc, nil)
			if err != nil {
				t.Errorf("%s %q in-memory: %v", c.name, g, err)
				continue
			}
			stored, err := TransformStored(g, st, c.name, nil)
			if err != nil {
				t.Errorf("%s %q stored: %v", c.name, g, err)
				continue
			}
			if mem.Output.XML(false) != stored.Output.XML(false) {
				t.Errorf("%s %q: in-memory and stored outputs differ (%d vs %d nodes)",
					c.name, g, mem.Output.Size(), stored.Output.Size())
			}
			// Closeness preservation on every rendered edge.
			for _, n := range mem.Output.Nodes() {
				if n.Parent == nil || n.Src == nil || n.Parent.Src == nil {
					continue
				}
				if !closest.IsClosest(n.Src.Origin(), n.Parent.Src.Origin()) {
					t.Errorf("%s %q: output edge %s/%s not closest in source",
						c.name, g, n.Parent.Name, n.Name)
					break
				}
			}
			// Value preservation: every output value equals its origin's.
			for _, n := range mem.Output.Nodes() {
				if n.Src != nil && n.Value != n.Src.Origin().Value {
					t.Errorf("%s %q: value corrupted at %s", c.name, g, n.Name)
					break
				}
			}
		}
		st.Close()
	}
}

// TestIntegrationStoredStreaming: the streaming path over the store agrees
// with the materialized output for a larger corpus.
func TestIntegrationStoredStreaming(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Factor: 0.003, Seed: 4})
	st := store.OpenMemory()
	defer st.Close()
	if _, err := st.Shred("x", strings.NewReader(doc.XML(false)), nil); err != nil {
		t.Fatal(err)
	}
	sh, err := st.Shape("x")
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Check("CAST MORPH person [ name emailaddress address [ city country ] ]", sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Doc("x")
	if err != nil {
		t.Fatal(err)
	}
	res, err := checked.Render(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := checked.StreamOn(d, &b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != res.Output.XML(false) {
		t.Error("stored streaming diverged from materialized output")
	}
}
