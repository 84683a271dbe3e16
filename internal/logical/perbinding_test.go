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

// wholeTreeResult runs a query the whole-tree way whatever the static
// decision says: the projection built under one wrapper element, then the
// query over it.
func wholeTreeResult(t *testing.T, query string, checked *core.Checked, docName string, doc render.Source) (*Result, error) {
	t.Helper()
	p, res, err := prepare(query, checked, docName, nil)
	if err != nil {
		return nil, err
	}
	src, scanned, done := partners(doc, p.tree)
	err = p.wholeTree(src, res, nil)
	if serr := done(); serr != nil {
		err = serr
	}
	res.Scanned = scanned
	return res, err
}

// unpruned answers the query over the guard's full output, rendered in
// memory without pruning, below the same wrapper element.
func unpruned(t *testing.T, query, guard, docName string, doc *xmltree.Document) string {
	t.Helper()
	full, err := core.Transform(guard, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := xmltree.MustParse("<xmorph-result>" + full.Output.XML(false) + "</xmorph-result>")
	eng := xq.New()
	eng.Bind(docName, wrapped)
	answer, err := eng.QueryXML(rebase(query, docName))
	if err != nil {
		t.Fatal(err)
	}
	return answer
}

// TestPerBindingMatchesWholeTree: on TestEvaluateOnePassMatchesReparse's
// corpus and on where, constructor, text(), multi-step, node-returning
// and nested-occurrence cases, the static decision is the expected one,
// and the answer EvaluateChecked gives equals both the whole-tree path's
// and the query's over the unpruned render — so a pruning bug, which the
// reparse oracle shares, shows here.
func TestPerBindingMatchesWholeTree(t *testing.T) {
	cases := []struct {
		name, guard, query string
		perBinding         bool
	}{
		{"bidders", "CAST MORPH open_auction [ bidder [ increase ] ]", `for $a in doc("x")//open_auction return count($a/bidder/increase)`, true},
		{"people", peopleGuard, peopleQuery, true},
		{"invert", "CAST MORPH bidder [ open_auction [ itemref ] ]", `for $b in doc("x")//bidder return count($b/open_auction/itemref)`, true},
		{"items", "CAST MORPH item [ name incategory ]", `for $i in doc("x")//item where exists($i/incategory) return concat(string($i/name), ":", string(count($i/incategory)))`, true},
		{"identity", identityGuard, `for $p in doc("x")//person return string($p/name)`, true},
		{"fresh-people", "CAST MORPH person [ emailaddress name ] | TRANSLATE person -> zzfresh", `for $p in doc("x")//zzfresh return string($p/emailaddress)`, true},
		{"fresh-bidders", "CAST MORPH open_auction [ bidder [ increase ] ] | TRANSLATE open_auction -> zzfresh", `count(doc("x")//zzfresh/bidder/increase)`, false},
		{"attr-kept", "CAST MORPH person [ id name ]", `for $p in doc("x")//person return concat(string($p/@id), ":", string($p/name))`, true},
		{"attr-identity", identityGuard, `for $e in doc("x")//incategory return string($e/@category)`, true},
		{"wildcard", identityGuard, `for $p in doc("x")//person return <p>{$p/*}</p>`, true},
		{"text-step", identityGuard, `for $n in doc("x")//person/name return $n/text()`, true},
		{"count", identityGuard, `count(doc("x")//open_auction/bidder)`, false},
		{"sum", "CAST MORPH open_auction [ bidder [ increase ] ]", `sum(doc("x")//increase)`, false},
		{"nothing", "CAST MORPH item [ name ]", `count(doc("x")//zeppelin)`, false},
		{"non-streamable", "CAST MORPH bidder [ open_auction [ itemref ] ]", `count(doc("x")//itemref)`, false},
		{"forest", "CAST MORPH emailaddress incategory", `(for $e in doc("x")//emailaddress return string($e), count(doc("x")//incategory/@category))`, false},
		{"new-translate", "CAST-WIDENING MORPH (NEW entry) [ person [ name ] ] | TRANSLATE entry -> card", `for $c in doc("x")//card return count($c/person)`, true},
		{"restrict", "CAST MORPH (RESTRICT person [ profile ]) [ name ]", `for $p in doc("x")//person return string($p/name)`, true},
		// Beyond that corpus.
		{"where", peopleGuard, `for $p in doc("x")//individual where contains(string($p/name), "a") return string($p/name)`, true},
		{"constructor", identityGuard, `for $p in doc("x")//person return <p id="k">{string($p/@id)}{$p/name}</p>`, true},
		{"nodes", peopleGuard, `for $p in doc("x")//individual return $p/name`, true},
		{"whole-binding", peopleGuard, `for $p in doc("x")//individual return ($p, $p/name)`, true},
		{"attr-items", identityGuard, `for $e in doc("x")//incategory return $e/@category`, true},
		{"multi-step", "CAST MORPH open_auction [ bidder [ increase ] ]", `for $b in doc("x")//open_auction/bidder where $b/increase > 10 return string($b/increase)`, true},
		{"child-steps", identityGuard, `for $p in doc("x")/site/people/person return string($p/name)`, true},
		{"nested-occurrence", "CAST MORPH person [ name ] | TRANSLATE person -> name", `for $n in doc("x")//name return string($n)`, false},
		{"order-by", peopleGuard, `for $p in doc("x")//individual order by string($p/name) return string($p/name)`, false},
		{"let", peopleGuard, `for $p in doc("x")//individual let $n := $p/name return string($n)`, false},
		{"doc-in-return", peopleGuard, `for $p in doc("x")//individual return count(doc("x")//individual)`, false},
		{"parent", identityGuard, `for $n in doc("x")//person/name return name($n/..)`, false},
		{"predicate", identityGuard, `for $p in doc("x")//person[1] return string($p/name)`, false},
		{"union", identityGuard, `for $p in doc("x")//person return count($p/name | $p/emailaddress)`, false},
	}

	doc := xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42})
	view, storedShape := shredded(t, doc)
	sources := []struct {
		name string
		sh   *shape.Shape
		src  func() render.Source
	}{
		{"in-memory", shape.FromDocument(doc), func() render.Source { return doc }},
		{"shredded", storedShape, func() render.Source { return storedDoc(t, view) }},
	}
	for _, c := range cases {
		want := unpruned(t, c.query, c.guard, "x", doc)
		if want == "" {
			t.Fatalf("%s: empty answer: the case exercises nothing", c.name)
		}
		for _, s := range sources {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				checked, err := core.Check(c.guard, s.sh, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EvaluateChecked(c.query, checked, "x", s.src(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.PerBinding != c.perBinding {
					t.Errorf("per binding = %v (%s), want %v", got.PerBinding, got.BindingReason, c.perBinding)
				}
				whole, err := wholeTreeResult(t, c.query, checked, "x", s.src())
				if err != nil {
					t.Fatal(err)
				}
				if got.Answer != whole.Answer {
					t.Errorf("answer diverges from the whole-tree path:\ngot:   %.200s\nwhole: %.200s", got.Answer, whole.Answer)
				}
				if got.Answer != want {
					t.Errorf("answer diverges from the unpruned render:\ngot:      %.200s\nunpruned: %.200s", got.Answer, want)
				}
				if got.RenderedNodes != whole.RenderedNodes || got.Scanned != whole.Scanned {
					t.Errorf("rendered/scanned = %d/%v, whole tree %d/%v", got.RenderedNodes, got.Scanned, whole.RenderedNodes, whole.Scanned)
				}
			})
		}
	}
}

// TestPruneUnderBindings: a for variable that is only navigated keeps
// just the nodes the query reads below it; one whose value is read keeps
// its whole subtree.
func TestPruneUnderBindings(t *testing.T) {
	v, sh := shredded(t, xmark.Generate(xmark.Config{Factor: 0.002, Seed: 3}))
	checked, err := core.Check(peopleGuard, sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		kept  int
	}{
		{peopleQuery, 2}, // individual, name
		{`for $p in doc("x")//individual return count($p)`, 3},
		{`for $p in doc("x")//individual return ($p, $p/name)`, 3},
		{`(doc("x"), count(doc("x")//name))`, 3},
	} {
		res, err := EvaluateChecked(c.query, checked, "x", storedDoc(t, v), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.KeptTypes != c.kept || res.TotalTypes != 3 {
			t.Errorf("%s: kept %d of %d types, want %d of 3", c.query, res.KeptTypes, res.TotalTypes, c.kept)
		}
	}
}

// FuzzLogicalBindings fuzzes query text over a small shredded XMark
// document under the people and identity guards: whenever the static
// decision runs a query per binding, its answer, or its error, is the
// whole-tree path's.
func FuzzLogicalBindings(f *testing.F) {
	for _, seed := range []string{
		peopleQuery,
		`for $p in doc("x")//individual where contains(string($p/name), "a") return $p/name`,
		`for $p in doc("x")//person return <p>{$p/@id}{count($p/*)}</p>`,
		`for $p in doc("x")/site/people/person return ($p/name/text(), $p/emailaddress)`,
		`for $i in doc("x")//item return if (exists($i/incategory)) then string($i/name) else 0`,
		`for $e in doc("x")//incategory return $e/@category`,
		`for $p in doc("x")//person return some $n in $p/name satisfies $n = "x"`,
		`for $p in doc("x")//individual return $p/name[1] + 1`,
	} {
		f.Add(seed)
	}
	st := store.OpenMemory()
	defer st.Close()
	doc := xmark.Generate(xmark.Config{Factor: 0.002, Seed: 11})
	if _, err := st.Shred("x", strings.NewReader(doc.XML(false)), nil); err != nil {
		f.Fatal(err)
	}
	v := st.View()
	defer v.Close()
	sh, err := v.Shape("x")
	if err != nil {
		f.Fatal(err)
	}
	var guards []*core.Checked
	for _, g := range []string{peopleGuard, identityGuard} {
		checked, err := core.Check(g, sh, nil)
		if err != nil {
			f.Fatal(err)
		}
		guards = append(guards, checked)
	}
	outcome := func(res *Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return res.Answer
	}
	f.Fuzz(func(t *testing.T, query string) {
		for _, checked := range guards {
			p, res, err := prepare(query, checked, "x", nil)
			if err != nil || !res.PerBinding {
				continue
			}
			src, _, done := partners(storedDoc(t, v), p.tree)
			err = p.perBinding(src, res, nil)
			if serr := done(); serr != nil {
				err = serr
			}
			whole, werr := wholeTreeResult(t, query, checked, "x", storedDoc(t, v))
			if g, w := outcome(res, err), outcome(whole, werr); g != w {
				t.Fatalf("%s\nper binding: %.300s\nwhole tree:  %.300s", query, g, w)
			}
		}
	})
}
