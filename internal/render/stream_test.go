package render

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"xmorph/internal/guard"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// streamRun compiles a guard and renders it both ways, asserting byte
// equality, and returns the streamed output.
func streamRun(t *testing.T, guardSrc, xmlSrc string) string {
	t.Helper()
	doc := xmltree.MustParse(xmlSrc)
	plan, err := semantics.Compile(guard.MustParse(guardSrc), shape.FromDocument(doc))
	if err != nil {
		t.Fatalf("compile %q: %v", guardSrc, err)
	}
	tgt := plan.ComposedTarget()

	tree, err := Render(doc, tgt, nil)
	if err != nil {
		t.Fatalf("render %q: %v", guardSrc, err)
	}
	var b strings.Builder
	n, err := Stream(doc, tgt, &b, nil)
	if err != nil {
		t.Fatalf("stream %q: %v", guardSrc, err)
	}
	if b.String() != tree.XML(false) {
		t.Errorf("stream and tree render differ for %q:\nstream: %s\ntree:   %s",
			guardSrc, b.String(), tree.XML(false))
	}
	if n != tree.Size() {
		t.Errorf("stream count = %d, tree size = %d", n, tree.Size())
	}
	return b.String()
}

func TestStreamMatchesTreeRender(t *testing.T) {
	guards := []string{
		"MORPH author [ name book [ title ] ]",
		"CAST MORPH title",
		"MUTATE data",
		"CAST MUTATE book [ publisher [ name ] ]",
		"CAST-WIDENING MUTATE (NEW scribe) [ author ]",
		"CAST MUTATE author [ CLONE title ]",
		"CAST MORPH (RESTRICT author [ name ]) [ title ]",
		"CAST MORPH author [ name ] | TRANSLATE author -> writer",
		"TYPE-FILL CAST MORPH author [ isbn ]",
	}
	for _, g := range guards {
		streamRun(t, g, fig1a)
	}
}

func TestStreamAttributes(t *testing.T) {
	const src = `<site><item id="i1" featured="yes"><name>bike &amp; bell</name></item></site>`
	out := streamRun(t, "MUTATE site", src)
	if !strings.Contains(out, `id="i1"`) || !strings.Contains(out, "&amp;") {
		t.Errorf("attributes/escaping: %s", out)
	}
}

func TestStreamEmptyOutput(t *testing.T) {
	doc := xmltree.MustParse(`<data><a>1</a></data>`)
	plan, err := semantics.Compile(guard.MustParse("CAST MUTATE (DROP a)"), shape.FromDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := Stream(doc, plan.ComposedTarget(), &b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<data/>") {
		t.Errorf("empty-ish stream: %q", b.String())
	}
}

// TestStreamRandomDocs compares both renderers over random documents and
// a battery of small guards.
func TestStreamRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		b := xmltree.NewBuilder().Elem("root")
		depth := 0
		for i := 0; i < 3+rng.Intn(25); i++ {
			if depth > 0 && rng.Intn(3) == 0 {
				b.End()
				depth--
				continue
			}
			b.Elem(labels[rng.Intn(3)])
			if rng.Intn(2) == 0 {
				b.Text("v<&>")
				b.End()
			} else {
				depth++
			}
		}
		for ; depth >= 0; depth-- {
			b.End()
		}
		doc := b.MustDocument()
		for _, g := range []string{"CAST MUTATE root", "CAST MORPH a [ b ]", "CAST MORPH root [ a c ]"} {
			plan, err := semantics.Compile(guard.MustParse(g), shape.FromDocument(doc))
			if err != nil {
				continue // random doc may lack the types
			}
			tgt := plan.ComposedTarget()
			tree, err := Render(doc, tgt, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if _, err := Stream(doc, tgt, &sb, nil); err != nil {
				t.Fatal(err)
			}
			if sb.String() != tree.XML(false) {
				t.Fatalf("trial %d guard %q:\nstream: %s\ntree:   %s",
					trial, g, sb.String(), tree.XML(false))
			}
		}
	}
}

// TestStreamWrapperRoots covers manufactured roots: a NEW root wraps each
// instance of its first sourced child, attaching closest siblings.
func TestStreamWrapperRoots(t *testing.T) {
	out := streamRun(t, "CAST-WIDENING MORPH (NEW entry) [ book [ title ] author ]", fig1a)
	if strings.Count(out, "<entry>") != 2 {
		t.Errorf("one wrapper per book expected:\n%s", out)
	}
	// Each entry carries the book plus its closest author (rendered empty:
	// the bare label requests no children and authors carry no text).
	if strings.Count(out, "<author") != 2 {
		t.Errorf("closest siblings missing:\n%s", out)
	}
}

// TestStreamFillOnlyWrapper covers wrappers with no sourced children at
// all: TYPE-FILL manufactures the nested types as empty elements.
func TestStreamFillOnlyWrapper(t *testing.T) {
	out := streamRun(t, "TYPE-FILL CAST MORPH (NEW top) [ missing [ alsomissing ] ]", fig1a)
	if !strings.Contains(out, "<top><missing><alsomissing/></missing></top>") {
		t.Errorf("fill-only wrapper:\n%s", out)
	}
}

// TestStreamWrapperWithNestedWrapper: a NEW inside a NEW.
func TestStreamWrapperNested(t *testing.T) {
	out := streamRun(t, "CAST-WIDENING MORPH (NEW outer) [ book (NEW inner) [ title ] ]", fig1a)
	if strings.Count(out, "<outer>") != 2 || strings.Count(out, "<inner>") != 2 {
		t.Errorf("nested wrappers:\n%s", out)
	}
}

// TestComposedEqualsPerStage: for pipelines whose later stages do not
// depend on re-derived type distances (identity MUTATE, DROP, TRANSLATE),
// the single-pass composed render must equal physically rendering stage by
// stage — the equivalence behind the Fig. 16 methodology.
func TestComposedEqualsPerStage(t *testing.T) {
	pipelines := []string{
		"CAST MORPH author [ name book [ title ] ] | TRANSLATE author -> writer",
		"CAST MORPH author [ name title ] | MUTATE author",
		"CAST MORPH book [ title author [ name ] ] | MUTATE (DROP name)",
		"CAST MORPH author [ name ] | TRANSLATE name -> alias | TRANSLATE author -> writer",
	}
	doc := xmltree.MustParse(fig1a)
	for _, g := range pipelines {
		plan, err := semantics.Compile(guard.MustParse(g), shape.FromDocument(doc))
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		composed, err := Render(doc, plan.ComposedTarget(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var cur Source = doc
		var staged *xmltree.Document
		for _, sp := range plan.Stages {
			o, err := Render(cur, sp.Target, nil)
			if err != nil {
				t.Fatalf("%s per-stage: %v", g, err)
			}
			staged, cur = o, o
		}
		if composed.XML(false) != staged.XML(false) {
			t.Errorf("%s:\ncomposed:  %s\nper-stage: %s", g, composed.XML(false), staged.XML(false))
		}
	}
}

// chokeWriter accepts limit bytes and then fails: with err set it returns
// that error; with err nil it returns a short write, which bufio reports
// as io.ErrShortWrite.
type chokeWriter struct {
	limit int
	n     int
	err   error
}

func (c *chokeWriter) Write(p []byte) (int, error) {
	room := c.limit - c.n
	if room >= len(p) {
		c.n += len(p)
		return len(p), nil
	}
	if room < 0 {
		room = 0
	}
	c.n += room
	return room, c.err
}

// TestStreamSurfacesFlushErrors: with output smaller than the bufio
// buffer, the sink sees bytes only at the final flush — a failure there
// must reach the caller instead of being dropped.
func TestStreamSurfacesFlushErrors(t *testing.T) {
	doc := xmltree.MustParse(fig1a)
	plan, err := semantics.Compile(guard.MustParse("MORPH author [ name ]"), shape.FromDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	for _, tc := range []struct {
		name string
		w    *chokeWriter
		want error
	}{
		{"error-at-flush", &chokeWriter{limit: 3, err: boom}, boom},
		{"short-write-at-flush", &chokeWriter{limit: 3}, io.ErrShortWrite},
		{"error-at-first-byte", &chokeWriter{limit: 0, err: boom}, boom},
	} {
		_, err := Stream(doc, plan.ComposedTarget(), tc.w, nil)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestStreamSurfacesMidStreamWriteErrors: output larger than the bufio
// buffer forces writes during streaming; the first failure must stick and
// surface.
func TestStreamSurfacesMidStreamWriteErrors(t *testing.T) {
	b := xmltree.NewBuilder().Elem("root")
	for i := 0; i < 400; i++ {
		b.Elem("a").Text("some repeated element value text").End()
	}
	b.End()
	doc := b.MustDocument()
	plan, err := semantics.Compile(guard.MustParse("CAST MUTATE root"), shape.FromDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("pipe broke")
	_, err = Stream(doc, plan.ComposedTarget(), &chokeWriter{limit: 5000, err: boom}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("mid-stream write error: got %v, want %v", err, boom)
	}
}

// TestStreamEmptyWrapperSelfCloses: a wrapper kid whose anchor has no
// instances under a given parent contributes nothing, so a parent with no
// text and no other content must self-close exactly as the tree renderer
// does (regression: the streamer used to emit <x></x> instead of <x/>).
func TestStreamEmptyWrapperSelfCloses(t *testing.T) {
	const src = `<data><g><x/><b>hit</b></g><g><x/></g></data>`
	out := streamRun(t, "CAST MORPH x [ (NEW w) [ b ] ]", src)
	if !strings.Contains(out, "<x/>") {
		t.Errorf("childless parent should self-close:\n%s", out)
	}
	if !strings.Contains(out, "<w><b>hit</b></w>") {
		t.Errorf("populated wrapper missing:\n%s", out)
	}
}

// TestStreamAttrTranslate: a renamed attribute must carry the target name,
// as Builder.Attr gives it (regression: the streamer printed the source
// name).
func TestStreamAttrTranslate(t *testing.T) {
	const src = `<site><item id="i1"/></site>`
	out := streamRun(t, "MUTATE site | TRANSLATE id -> ref", src)
	if !strings.Contains(out, `ref="i1"`) {
		t.Errorf("translated attribute name:\n%s", out)
	}
}

// TestStreamAttrOnlyWrapper: a wrapper anchored on an attribute-sourced
// leaf renders the attribute into the wrapper's own tag and self-closes
// (regression: the streamer rendered it as a child element).
func TestStreamAttrOnlyWrapper(t *testing.T) {
	const src = `<site><item id="i1"/><item id="i2"/></site>`
	out := streamRun(t, "CAST-WIDENING MORPH (NEW entry) [ id ]", src)
	if !strings.Contains(out, `<entry id="i1"/>`) || !strings.Contains(out, `<entry id="i2"/>`) {
		t.Errorf("attr-only wrapper instances:\n%s", out)
	}
}
