package stream

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"xmorph/internal/guard"
	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// compile builds the composed target of a guard against a document.
func compile(t *testing.T, guardSrc string, doc *xmltree.Document) *semantics.Target {
	t.Helper()
	p, err := semantics.Compile(guard.MustParse(guardSrc), shape.FromDocument(doc))
	if err != nil {
		t.Fatalf("compile %q: %v", guardSrc, err)
	}
	return p.ComposedTarget()
}

// TestExecuteRandomDocsMatchesRender is the byte-identity oracle over
// random documents: for every guard, the join-backed renderer over the
// document shredded into a store must produce exactly
// Render(...).XML(false) of the parsed document, and for every guard the
// planner marks streamable so must the one-pass executor. Two guards
// never stream — an up-then-down invert, and a RESTRICT probe in a
// store-backed tree — so the stored joins meet every shape of partner
// enumeration.
func TestExecuteRandomDocsMatchesRender(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	labels := []string{"a", "b", "c"}
	guards := []string{
		"CAST MUTATE root",
		"CAST MORPH a [ b ]",
		"CAST MORPH root [ a c ]",
		"CAST MORPH b [ root ]",
		"CAST MORPH (RESTRICT a [ b ]) ",
		"CAST-WIDENING MORPH (NEW w) [ a [ b ] ]",
		"CAST MORPH root [ a ] | TRANSLATE a -> alpha",
		"CAST MORPH b [ root [ c ] ]",
		"CAST MORPH (RESTRICT b [ c ]) [ root [ a ] ]",
	}
	streamableTrials, storedTrials := 0, 0
	for trial := 0; trial < 60; trial++ {
		b := xmltree.NewBuilder().Elem("root")
		depth := 0
		for i := 0; i < 3+rng.Intn(25); i++ {
			if depth > 0 && rng.Intn(3) == 0 {
				b.End()
				depth--
				continue
			}
			b.Elem(labels[rng.Intn(3)])
			if rng.Intn(4) == 0 {
				b.Attr("k", `v"<&>`)
			}
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
		stored := shredded(t, doc)
		for _, g := range guards {
			p, err := semantics.Compile(guard.MustParse(g), shape.FromDocument(doc))
			if err != nil {
				continue // random doc may lack the types
			}
			tgt := p.ComposedTarget()
			tree, err := render.Render(doc, tgt, nil)
			if err != nil {
				t.Fatal(err)
			}
			var joined strings.Builder
			if _, err := render.StreamTree(stored, plan.Build(tgt), &joined, false, nil); err != nil {
				t.Fatalf("trial %d guard %q: stored joins: %v", trial, g, err)
			}
			if joined.String() != tree.XML(false) {
				t.Fatalf("trial %d guard %q:\nstored joins: %s\ntree:         %s",
					trial, g, joined.String(), tree.XML(false))
			}
			storedTrials++
			if !plan.Classify(tgt).Streamable {
				continue
			}
			streamableTrials++
			var sb strings.Builder
			n, err := Execute(FromNodes(doc), tgt, &sb, nil)
			if err != nil {
				t.Fatalf("trial %d guard %q: %v", trial, g, err)
			}
			if sb.String() != tree.XML(false) {
				t.Fatalf("trial %d guard %q:\nstream: %s\ntree:   %s",
					trial, g, sb.String(), tree.XML(false))
			}
			if n != tree.Size() {
				t.Fatalf("trial %d guard %q: count %d != size %d", trial, g, n, tree.Size())
			}
		}
	}
	if streamableTrials < 50 || storedTrials-streamableTrials < 50 {
		t.Fatalf("only %d streamable and %d store-backed trials: battery too weak",
			streamableTrials, storedTrials-streamableTrials)
	}
}

// shredded returns doc shredded into a memory store, opened through a
// view both stay open for the rest of the test.
func shredded(t *testing.T, doc *xmltree.Document) *store.Doc {
	t.Helper()
	s := store.OpenMemory()
	t.Cleanup(func() { s.Close() })
	if _, err := s.Shred("d", strings.NewReader(doc.XML(false)), nil); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	t.Cleanup(v.Close)
	d, err := v.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExecuteNotStreamable: the executor refuses store-backed targets
// with the sentinel, carrying the planner's reason.
func TestExecuteNotStreamable(t *testing.T) {
	doc := xmltree.MustParse(`<data><a><x>1</x></a><b><y>2</y></b></data>`)
	tgt := compile(t, "CAST MORPH x [ y ]", doc)
	_, err := Execute(FromNodes(doc), tgt, io.Discard, nil)
	if !errors.Is(err, ErrNotStreamable) {
		t.Fatalf("err = %v, want ErrNotStreamable", err)
	}
	if !strings.Contains(err.Error(), "cross-axis") {
		t.Errorf("reason missing from error: %v", err)
	}
}

// chokeWriter accepts limit bytes, then fails with err (or a short write
// when err is nil, which bufio reports as io.ErrShortWrite).
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

// TestExecuteWriterErrors: write failures surface — from the buffered
// flush path for small outputs, mid-stream for large ones.
func TestExecuteWriterErrors(t *testing.T) {
	boom := errors.New("sink full")

	small := xmltree.MustParse(`<root><a>1</a></root>`)
	tgt := compile(t, "CAST MUTATE root", small)
	if _, err := Execute(FromNodes(small), tgt, &chokeWriter{limit: 3, err: boom}, nil); !errors.Is(err, boom) {
		t.Errorf("flush-path error: got %v, want %v", err, boom)
	}
	if _, err := Execute(FromNodes(small), tgt, &chokeWriter{limit: 3}, nil); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("short write: got %v, want io.ErrShortWrite", err)
	}

	b := xmltree.NewBuilder().Elem("root")
	for i := 0; i < 400; i++ {
		b.Elem("a").Text("some repeated element value text").End()
	}
	b.End()
	big := b.MustDocument()
	tgt = compile(t, "CAST MUTATE root", big)
	if _, err := Execute(FromNodes(big), tgt, &chokeWriter{limit: 5000, err: boom}, nil); !errors.Is(err, boom) {
		t.Errorf("mid-stream error: got %v, want %v", err, boom)
	}
}

// TestExecuteSpanAttrs: a traced run records output and scan counts.
func TestExecuteSpanAttrs(t *testing.T) {
	doc := xmltree.MustParse(`<root><a>1</a><a>2</a></root>`)
	tgt := compile(t, "CAST MUTATE root", doc)
	tr := obs.New("exec")
	sp := tr.Root()
	var sb strings.Builder
	n, err := Execute(FromNodes(doc), tgt, &sb, sp)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if v, ok := sp.Attr("nodes-out"); !ok || v != fmt.Sprint(n) {
		t.Errorf("nodes-out = %q, want %d", v, n)
	}
	if v, ok := sp.Attr("bytes-out"); !ok || v != fmt.Sprint(sb.Len()) {
		t.Errorf("bytes-out = %q, want %d", v, sb.Len())
	}
	if v, ok := sp.Attr("scans"); !ok || v == "0" {
		t.Errorf("scans = %q", v)
	}
}

// buildFlat makes <root> with n <a id="..">text</a> children — same shape
// at any n, so targets compile identically across sizes.
func buildFlat(n int) *xmltree.Document {
	b := xmltree.NewBuilder().Elem("root")
	for i := 0; i < n; i++ {
		b.Elem("a").Attr("id", "x42").Text("value text").End()
	}
	b.End()
	return b.MustDocument()
}

// TestExecuteHotLoopAllocFree proves the emit loop allocates nothing per
// node: growing the document 10x may not add a single allocation per run
// over the in-memory source (all per-run allocations are setup: cursor
// table, tinfo map, bufio buffer).
func TestExecuteHotLoopAllocFree(t *testing.T) {
	measure := func(doc *xmltree.Document) float64 {
		tgt := compile(t, "CAST MUTATE root", doc)
		src := FromNodes(doc)
		return testing.AllocsPerRun(50, func() {
			if _, err := Execute(src, tgt, io.Discard, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(buildFlat(50))
	big := measure(buildFlat(500))
	if big > small+1 {
		t.Errorf("allocs grew with document size: %0.1f at 50 nodes, %0.1f at 500", small, big)
	}
}

// TestExecuteStoreAllocsSublinear bounds the store-backed path: the
// executor itself stays allocation-free, so what remains is the page
// decode underneath the scan cursors — well under the per-node cost of
// materializing sequences.
func TestExecuteStoreAllocsSublinear(t *testing.T) {
	measure := func(n int) float64 {
		s := store.OpenMemory()
		defer s.Close()
		var sb strings.Builder
		sb.WriteString("<root>")
		for i := 0; i < n; i++ {
			sb.WriteString("<a>value text</a>")
		}
		sb.WriteString("</root>")
		if _, err := s.Shred("d", strings.NewReader(sb.String()), nil); err != nil {
			t.Fatal(err)
		}
		v := s.View()
		defer v.Close()
		doc, err := v.Doc("d")
		if err != nil {
			t.Fatal(err)
		}
		tgt := compile(t, "CAST MUTATE root", xmltree.MustParse(sb.String()))
		return testing.AllocsPerRun(20, func() {
			if _, err := Execute(FromDoc(doc), tgt, io.Discard, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := measure(50), measure(500)
	perNode := (big - small) / 450
	if perNode > 4 {
		t.Errorf("store-backed allocs/node = %0.2f (small %0.0f, big %0.0f): page decode should amortize", perNode, small, big)
	}
}

// TestExecuteManyValues exercises chunked values end to end: a value
// larger than the store chunk size must stream back byte-identical.
func TestExecuteChunkedValues(t *testing.T) {
	big := strings.Repeat("lorem ipsum <&> ", 500) // ~8 KB, chunked and escaped
	esc := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(big)
	src := "<doc><body>" + esc + "</body></doc>"
	s := store.OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	defer v.Close()
	doc, err := v.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	mem := xmltree.MustParse(src)
	tgt := compile(t, "CAST MUTATE doc", mem)
	tree, err := render.Render(mem, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := Execute(FromDoc(doc), tgt, &out, nil); err != nil {
		t.Fatal(err)
	}
	if out.String() != tree.XML(false) {
		t.Errorf("chunked value diverged: %d vs %d bytes", out.Len(), len(tree.XML(false)))
	}
}

// TestExecuteTimeToFirstByte sanity-checks the streaming claim the bench
// quantifies: the executor emits its first bytes before draining the
// whole input scan (here: first write lands after O(1) nodes).
func TestExecuteTimeToFirstByte(t *testing.T) {
	// Values sized so a handful of nodes fill the 4 KB output buffer:
	// the first sink write may lag by one buffer, never by the document.
	b := xmltree.NewBuilder().Elem("root")
	for i := 0; i < 2000; i++ {
		b.Elem("a").Text(strings.Repeat("v", 100)).End()
	}
	b.End()
	doc := b.MustDocument()
	tgt := compile(t, "CAST MUTATE root", doc)
	fw := &firstWriteWatcher{}
	if _, err := Execute(&watchedSource{inner: FromNodes(doc), w: fw}, tgt, fw, nil); err != nil {
		t.Fatal(err)
	}
	if fw.nodesAtFirstWrite > 200 {
		t.Errorf("first write only after %d node reads: not streaming", fw.nodesAtFirstWrite)
	}
}

type firstWriteWatcher struct {
	nodesRead         int
	nodesAtFirstWrite int
	wrote             bool
}

func (f *firstWriteWatcher) Write(p []byte) (int, error) {
	if !f.wrote {
		f.wrote = true
		f.nodesAtFirstWrite = f.nodesRead
	}
	return len(p), nil
}

type watchedSource struct {
	inner Source
	w     *firstWriteWatcher
}

func (s *watchedSource) ScanType(t string) Cursor {
	return &watchedCursor{Cursor: s.inner.ScanType(t), w: s.w}
}

type watchedCursor struct {
	Cursor
	w *firstWriteWatcher
}

func (c *watchedCursor) Next() bool {
	c.w.nodesRead++
	return c.Cursor.Next()
}
