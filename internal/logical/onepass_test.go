package logical

import (
	"strings"
	"testing"

	"xmorph/internal/core"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/render"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
	"xmorph/internal/xq"
)

// reparse is the oracle: the evaluation that rendered the projection,
// serialized it, wrapped the bytes in <xmorph-result>, parsed them back
// and queried the parsed tree.
func reparse(t *testing.T, query string, checked *core.Checked, docName string, doc render.Source) *Result {
	t.Helper()
	chains, err := xq.ExtractPaths(query)
	if err != nil {
		t.Fatal(err)
	}
	pruned := Prune(checked.Plan.ComposedTarget(), chains)
	out, err := render.Render(doc, pruned, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := xmltree.ParseString("<xmorph-result>" + out.XML(false) + "</xmorph-result>")
	if err != nil {
		wrapped = &xmltree.Document{}
	}
	eng := xq.New()
	eng.Bind(docName, wrapped)
	answer, err := eng.QueryXML(rebase(query, docName))
	if err != nil {
		t.Fatal(err)
	}
	return &Result{Answer: answer, RenderedNodes: out.Size(), KeptTypes: countTypes(pruned)}
}

// shredded stores doc as "x" in a fresh in-memory store and returns a
// view of it with the stored shape.
func shredded(t *testing.T, doc *xmltree.Document) (*store.View, *shape.Shape) {
	t.Helper()
	st := store.OpenMemory()
	t.Cleanup(func() { st.Close() })
	if _, err := st.Shred("x", strings.NewReader(doc.XML(false)), nil); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	t.Cleanup(v.Close)
	sh, err := v.Shape("x")
	if err != nil {
		t.Fatal(err)
	}
	return v, sh
}

// storedDoc opens "x" in v: a fresh handle, whose type sequences have not
// been read yet, as each engine request gets.
func storedDoc(t *testing.T, v *store.View) *store.Doc {
	t.Helper()
	d, err := v.Doc("x")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The benchmark's people guard and logical query (benchmark/spec.go).
const (
	peopleGuard   = "CAST MORPH person [ name emailaddress ] | TRANSLATE person -> individual"
	peopleQuery   = `for $p in doc("x")//individual return string($p/name)`
	identityGuard = "CAST MUTATE site"
)

// TestEvaluateOnePassMatchesReparse: emitting the projection straight into
// the query's input tree answers every query as the serialize-and-reparse
// evaluation did, over an in-memory and a shredded XMark document, with
// the same rendered-node and kept-type counts.
func TestEvaluateOnePassMatchesReparse(t *testing.T) {
	cases := []struct{ name, guard, query string }{
		// The benchmark's mix guards and fresh templates.
		{"bidders", "CAST MORPH open_auction [ bidder [ increase ] ]", `for $a in doc("x")//open_auction return count($a/bidder/increase)`},
		{"people", peopleGuard, peopleQuery},
		{"invert", "CAST MORPH bidder [ open_auction [ itemref ] ]", `for $b in doc("x")//bidder return count($b/open_auction/itemref)`},
		{"items", "CAST MORPH item [ name incategory ]", `for $i in doc("x")//item where exists($i/incategory) return concat(string($i/name), ":", string(count($i/incategory)))`},
		{"identity", identityGuard, `for $p in doc("x")//person return string($p/name)`},
		{"fresh-people", "CAST MORPH person [ emailaddress name ] | TRANSLATE person -> zzfresh", `for $p in doc("x")//zzfresh return string($p/emailaddress)`},
		{"fresh-bidders", "CAST MORPH open_auction [ bidder [ increase ] ] | TRANSLATE open_auction -> zzfresh", `count(doc("x")//zzfresh/bidder/increase)`},
		// Attributes, as attributes of a kept element and under the
		// identity guard.
		{"attr-kept", "CAST MORPH person [ id name ]", `for $p in doc("x")//person return concat(string($p/@id), ":", string($p/name))`},
		{"attr-identity", identityGuard, `for $e in doc("x")//incategory return string($e/@category)`},
		// Wildcard and text() steps switch pruning off below them.
		{"wildcard", identityGuard, `for $p in doc("x")//person return <p>{$p/*}</p>`},
		{"text-step", identityGuard, `for $n in doc("x")//person/name return $n/text()`},
		// Aggregates.
		{"count", identityGuard, `count(doc("x")//open_auction/bidder)`},
		{"sum", "CAST MORPH open_auction [ bidder [ increase ] ]", `sum(doc("x")//increase)`},
		// A query touching nothing keeps the full target.
		{"nothing", "CAST MORPH item [ name ]", `count(doc("x")//zeppelin)`},
		// The projection stays non-streamable after pruning: the
		// bidder-to-open_auction up-join has children.
		{"non-streamable", "CAST MORPH bidder [ open_auction [ itemref ] ]", `count(doc("x")//itemref)`},
		// A forest of two root types.
		{"forest", "CAST MORPH emailaddress incategory", `(for $e in doc("x")//emailaddress return string($e), count(doc("x")//incategory/@category))`},
		// A manufactured wrapper, renamed.
		{"new-translate", "CAST-WIDENING MORPH (NEW entry) [ person [ name ] ] | TRANSLATE entry -> card", `for $c in doc("x")//card return count($c/person)`},
		// A RESTRICT guard.
		{"restrict", "CAST MORPH (RESTRICT person [ profile ]) [ name ]", `for $p in doc("x")//person return string($p/name)`},
	}

	doc := xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42})
	view, storedShape := shredded(t, doc)
	stored := storedDoc(t, view)
	sources := []struct {
		name string
		sh   *shape.Shape
		src  render.Source
	}{
		{"in-memory", shape.FromDocument(doc), doc},
		{"shredded", storedShape, stored},
	}
	for _, c := range cases {
		for _, s := range sources {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				checked, err := core.Check(c.guard, s.sh, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EvaluateChecked(c.query, checked, "x", s.src, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := reparse(t, c.query, checked, "x", s.src)
				if got.Answer == "" {
					t.Error("empty answer: the case exercises nothing")
				}
				if got.Answer != want.Answer {
					t.Errorf("answer diverges from the reparse oracle:\ngot:  %.200s\nwant: %.200s", got.Answer, want.Answer)
				}
				if got.RenderedNodes != want.RenderedNodes || got.KeptTypes != want.KeptTypes {
					t.Errorf("rendered/kept = %d/%d, oracle %d/%d", got.RenderedNodes, got.KeptTypes, want.RenderedNodes, want.KeptTypes)
				}
			})
		}
	}
}

// TestEvaluateAllocs guards the one-pass emission's allocation count on a
// stored document: the benchmark's logical query over the people guard,
// each call on a fresh document handle as in an engine request. The
// serialize-and-reparse evaluation allocated 5 539 times per call here;
// the one-pass emission must stay at or below 0.6 of that.
func TestEvaluateAllocs(t *testing.T) {
	const reparseAllocs = 5539
	v, sh := shredded(t, xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42}))
	checked, err := core.Check(peopleGuard, sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := EvaluateChecked(peopleQuery, checked, "x", storedDoc(t, v), nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per evaluation (serialize-and-reparse: %d)", allocs, reparseAllocs)
	if allocs > 0.6*reparseAllocs {
		t.Errorf("%.0f allocs per evaluation, want at most %.0f", allocs, 0.6*reparseAllocs)
	}
}
