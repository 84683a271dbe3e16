package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xmorph/internal/closest"
	"xmorph/internal/loss"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

const fig1a = `<data>
  <book>
    <title>X</title>
    <author><name>V</name></author>
    <publisher><name>W</name></publisher>
  </book>
  <book>
    <title>Y</title>
    <author><name>V</name></author>
    <publisher><name>W</name></publisher>
  </book>
</data>`

const fig1b = `<data>
  <publisher>
    <name>W</name>
    <book>
      <title>X</title>
      <author><name>V</name></author>
    </book>
    <book>
      <title>Y</title>
      <author><name>V</name></author>
    </book>
  </publisher>
</data>`

const fig1c = `<data>
  <author>
    <name>V</name>
    <book>
      <title>X</title>
      <publisher><name>W</name></publisher>
    </book>
    <book>
      <title>Y</title>
      <publisher><name>W</name></publisher>
    </book>
  </author>
</data>`

// TestIntroScenario is the paper's Section I story end to end: one guard,
// three shapes, same data out.
func TestIntroScenario(t *testing.T) {
	const g = "MORPH author [ name book [ title ] ]"
	a, err := TransformString(g, fig1a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TransformString(g, fig1b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Output.XML(false) != b.Output.XML(false) {
		t.Errorf("instances (a) and (b) should transform identically:\n%s\n%s",
			a.Output.XML(false), b.Output.XML(false))
	}
	if a.Loss.Verdict != loss.StronglyTyped {
		t.Errorf("intro guard verdict = %v, want strongly-typed", a.Loss.Verdict)
	}
}

// TestDefaultModeRejectsWideningGuard: Figure 3's guard must be rejected
// without a cast and accepted with CAST-WIDENING.
func TestDefaultModeRejectsWideningGuard(t *testing.T) {
	const g = "MORPH author [ title name publisher [ name ] ]"
	_, err := TransformString(g, fig1c)
	if err == nil {
		t.Fatal("widening guard accepted in strict mode")
	}
	if _, ok := err.(*loss.CastError); !ok {
		t.Fatalf("error = %T %v, want CastError", err, err)
	}
	if _, err := TransformString("CAST-WIDENING "+g, fig1c); err != nil {
		t.Errorf("CAST-WIDENING rejected: %v", err)
	}
	if _, err := TransformString("CAST "+g, fig1c); err != nil {
		t.Errorf("CAST rejected: %v", err)
	}
	if _, err := TransformString("CAST-NARROWING "+g, fig1c); err == nil {
		t.Error("CAST-NARROWING should not admit a widening guard")
	}
}

func TestLabelReportText(t *testing.T) {
	res, err := TransformString("MORPH author [ name ]", fig1a)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.LabelReport()
	if !strings.Contains(rep, `label "name": ambiguous`) {
		t.Errorf("label report missing ambiguity note:\n%s", rep)
	}
}

func TestBadGuardSurfacesSyntaxError(t *testing.T) {
	_, err := TransformString("MORPH [", fig1a)
	if err == nil || !strings.Contains(err.Error(), "syntax error") {
		t.Errorf("error = %v", err)
	}
}

func TestCompileAndRenderTimed(t *testing.T) {
	res, err := TransformString("MUTATE data", fig1a)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompileTime <= 0 || res.RenderTime <= 0 {
		t.Errorf("times not recorded: compile=%v render=%v", res.CompileTime, res.RenderTime)
	}
}

// randomDoc builds small random documents over a fixed label alphabet.
func randomDoc(r *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	b := xmltree.NewBuilder().Elem("root")
	depth := 0
	n := 2 + r.Intn(30)
	for i := 0; i < n; i++ {
		if depth > 0 && r.Intn(3) == 0 {
			b.End()
			depth--
			continue
		}
		b.Elem(labels[r.Intn(len(labels))])
		if r.Intn(2) == 0 {
			b.Text("v")
			b.End()
		} else {
			depth++
		}
	}
	for ; depth >= 0; depth-- {
		b.End()
	}
	return b.MustDocument()
}

// TestPropertyIdentityMutateReversible: for random documents, MUTATE root
// is statically strongly-typed and empirically reversible.
func TestPropertyIdentityMutateReversible(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomDoc(r))
	}}
	err := quick.Check(func(d *xmltree.Document) bool {
		checked, err := Check("MUTATE root", shapeOf(d), nil)
		if err != nil {
			return false
		}
		if checked.Loss.Verdict != loss.StronglyTyped {
			return false
		}
		res, err := checked.Render(d, nil)
		if err != nil {
			return false
		}
		cmp := closest.Compare(closest.Build(d), closest.Build(res.Output))
		return cmp.Reversible()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyRenderIsClosenessPreserving: every parent/child edge in any
// MORPH output joins two vertices that are closest in the source
// (Definition 4's defining property).
func TestPropertyRenderIsClosenessPreserving(t *testing.T) {
	guards := []string{
		"CAST MORPH a [ b ]",
		"CAST MORPH b [ c [ d ] ]",
		"CAST MORPH root [ a [ b ] c ]",
		"CAST MUTATE a [ b ]",
	}
	cfg := &quick.Config{MaxCount: 40, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomDoc(r))
	}}
	for _, g := range guards {
		g := g
		err := quick.Check(func(d *xmltree.Document) bool {
			checked, err := Check(g, shapeOf(d), nil)
			if err != nil {
				// The random doc may lack the guard's types entirely:
				// a type mismatch is a legitimate outcome, not a failure.
				return isTypeError(err)
			}
			res, err := checked.Render(d, nil)
			if err != nil {
				return false
			}
			ok := true
			for _, n := range res.Output.Nodes() {
				if n.Parent == nil || n.Src == nil || n.Parent.Src == nil {
					continue
				}
				if !closest.IsClosest(n.Src.Origin(), n.Parent.Src.Origin()) {
					ok = false
				}
			}
			return ok
		}, cfg)
		if err != nil {
			t.Errorf("guard %q: %v", g, err)
		}
	}
}

func isTypeError(err error) bool {
	return strings.Contains(err.Error(), "type mismatch") ||
		strings.Contains(err.Error(), "no parent type is closest")
}

func shapeOf(d *xmltree.Document) *shape.Shape { return shape.FromDocument(d) }

// TestVerifyQuantifiesLoss exercises the Section X refinement: the
// empirical comparison counts exactly what was dropped or manufactured.
func TestVerifyQuantifiesLoss(t *testing.T) {
	const src = `<data>
	  <book><author><title>A</title></author></book>
	  <book><author><name>V</name><title>B</title></author></book>
	</data>`
	doc := xmltree.MustParse(src)
	verify := func(out *xmltree.Document) closest.Result {
		return closest.Compare(closest.Build(doc), closest.Build(out))
	}

	// Identity: nothing lost, nothing created.
	id, err := Transform("MUTATE data", doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := verify(id.Output)
	if !r.Reversible() || r.LossPct() != 0 || r.CreatedPct() != 0 {
		t.Errorf("identity verify = %+v", r)
	}
	if r.SrcVertices != doc.Size() {
		t.Errorf("SrcVertices = %d, want %d", r.SrcVertices, doc.Size())
	}

	// Lossy: the nameless author's subtree vanishes.
	lossy, err := Transform("CAST MUTATE name [ author ]", doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = verify(lossy.Output)
	if r.Inclusive {
		t.Errorf("lossy transform verified as inclusive: %+v", r)
	}
	if r.LostVertices == 0 || r.LossPct() <= 0 {
		t.Errorf("lost vertices not counted: %+v", r)
	}

	// Manufacturing: NEW wrappers count as created vertices.
	made, err := Transform("CAST-WIDENING MUTATE (NEW scribe) [ author ]", doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = verify(made.Output)
	if r.CreatedVertices != 2 {
		t.Errorf("created vertices = %d, want one scribe per author", r.CreatedVertices)
	}
	if r.CreatedPct() <= 0 {
		t.Errorf("created pct = %f", r.CreatedPct())
	}
}

func TestCheckedStreamMatchesOutput(t *testing.T) {
	doc := xmltree.MustParse(fig1a)
	checked, err := Check("MORPH author [ name book [ title ] ]", shapeOf(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := checked.Render(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	n, err := checked.StreamOn(doc, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != res.Output.XML(false) {
		t.Errorf("stream differs from render:\n%s\n%s", b.String(), res.Output.XML(false))
	}
	if n != res.Output.Size() {
		t.Errorf("stream count %d, output size %d", n, res.Output.Size())
	}
}

func TestUntracedPathUnchanged(t *testing.T) {
	// A nil parent span must not panic anywhere in the traced pipeline,
	// over an in-memory document or a store's lazy type sequences.
	st := store.OpenMemory()
	defer st.Close()
	if _, err := st.Shred("b", strings.NewReader(`<data><t>x</t></data>`), nil); err != nil {
		t.Fatal(err)
	}
	sh, err := st.Shape("b")
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Check("CAST MUTATE data", sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Doc("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checked.Render(d, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Transform("CAST MUTATE data", xmltree.MustParse(`<data><t>x</t></data>`), nil); err != nil {
		t.Fatal(err)
	}
}
