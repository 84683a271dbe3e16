package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"xmorph/internal/guard"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// randomRootDoc makes a document whose root <r> has attributes, text and
// element kids of at least two types, nested a few levels with attributes
// and escaped text; long makes its values long enough to fill blocks.
func randomRootDoc(rng *rand.Rand, long bool) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	text := func() string {
		s := "v<&>\"\n"
		if long {
			s = strings.Repeat(s+"text ", 40+rng.Intn(400))
		}
		return s
	}
	b := xmltree.NewBuilder().Elem("r")
	if rng.Intn(2) == 0 {
		b.Attr("id", `r"<1>`)
	}
	if rng.Intn(2) == 0 {
		b.Attr("lang", "en")
	}
	if rng.Intn(2) == 0 {
		b.Text(text())
	}
	var kid func(label string, depth int)
	kid = func(label string, depth int) {
		b.Elem(label)
		if rng.Intn(3) == 0 {
			b.Attr("k", `v"<&>`)
		}
		if rng.Intn(2) == 0 {
			b.Text(text())
		}
		for i := rng.Intn(4); depth < 3 && i > 0; i-- {
			kid(labels[rng.Intn(len(labels))], depth+1)
		}
		b.End()
	}
	kid("a", 1)
	kid("b", 1)
	for i := rng.Intn(30); i > 0; i-- {
		kid(labels[rng.Intn(3)], 1)
	}
	return b.End().MustDocument()
}

// TestSplitMatchesSerial is the byte-identity oracle for the split: over
// random documents whose root has several element kid types, every
// streamable guard run on one to four workers, compact and indented,
// over an in-memory and a stored copy, writes exactly what the serial
// walk and Render(...).XML(indent) write. The worker count is forced, so
// one core runs the split too.
func TestSplitMatchesSerial(t *testing.T) {
	splits := 0
	rng := rand.New(rand.NewSource(41))
	guards := []string{
		"CAST MUTATE r",
		"CAST MORPH r [ c a ]",
		"CAST MORPH r [ id b [ d ] a ]",
		"CAST-WIDENING MORPH r [ (NEW w) [ a ] c ]",
		"CAST MORPH r [ (RESTRICT a [ d ]) b ]",
		"MUTATE r | TRANSLATE a -> alpha",
	}
	compared := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		doc := randomRootDoc(rng, trial%8 == 7)
		var srcs []Source
		srcs = append(srcs, FromNodes(doc))
		if trial%4 == 0 {
			srcs = append(srcs, FromDoc(storedDoc(t, doc)))
		}
		for _, g := range guards {
			p, err := semantics.Compile(guard.MustParse(g), shape.FromDocument(doc))
			if err != nil {
				continue // the random document may lack a type
			}
			tgt := p.ComposedTarget()
			tree := plan.Build(tgt)
			if !tree.Decision().Streamable {
				continue // labels at several depths may join across
			}
			rendered, err := render.Render(doc, tgt, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, indent := range []bool{false, true} {
				want := rendered.XML(indent)
				for si, src := range srcs {
					for procs := 1; procs <= 4; procs++ {
						var out bytes.Buffer
						var f figures
						err := executeTree(src, tree, &out, indent, procs, &f)
						if err != nil {
							t.Fatalf("trial %d guard %q procs %d: %v", trial, g, procs, err)
						}
						if out.String() != want {
							t.Fatalf("trial %d guard %q indent %v source %d procs %d:\nsplit:  %q\nrender: %q",
								trial, g, indent, si, procs, out.String(), want)
						}
						if f.nodes != rendered.Size() {
							t.Fatalf("trial %d guard %q procs %d: %d nodes, want %d", trial, g, procs, f.nodes, rendered.Size())
						}
						if f.out != 0 || f.held > maxBlocks {
							t.Fatalf("trial %d guard %q procs %d: split ended with %d blocks out, held %d at most", trial, g, procs, f.out, f.held)
						}
						if f.jobs > 1 {
							splits++
						}
						compared[g]++
					}
				}
			}
		}
	}
	t.Logf("comparisons per guard %v, %d of them split", compared, splits)
	if splits < 1000 {
		t.Fatalf("%d of the comparisons %v split: battery too weak", splits, compared)
	}
}

// storedDoc shreds doc into a fresh in-memory store and opens it through a
// view that stays open until the test ends.
func storedDoc(t *testing.T, doc *xmltree.Document) *store.Doc {
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

// bigRootDoc makes <r> with kid types a, b, c, each n elements of about
// 100 bytes, every c with a <d> kid: every job fills many blocks.
func bigRootDoc(n int) *xmltree.Document {
	b := xmltree.NewBuilder().Elem("r").Attr("id", "1")
	val := strings.Repeat("x", 90)
	for _, label := range []string{"a", "b", "c"} {
		for i := 0; i < n; i++ {
			b.Elem(label).Text(val)
			if label == "c" {
				b.Elem("d").Text("y").End()
			}
			b.End()
		}
	}
	return b.End().MustDocument()
}

// failAfter accepts limit bytes, then fails every write, and counts the
// writes it was asked for after its first failure.
type failAfter struct {
	limit int
	out   bytes.Buffer
	failed,
	after int
}

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed > 0 {
		f.after++
	}
	room := f.limit - f.out.Len()
	if room >= len(p) {
		f.out.Write(p)
		return len(p), nil
	}
	f.out.Write(p[:max(room, 0)])
	f.failed++
	return max(room, 0), errSinkFull
}

// failingSource fails the cursors of one type after they have read n
// nodes: Next reports the end, Err the failure.
type failingSource struct {
	Source
	typ string
	n   int
}

var errPage = errors.New("page unreadable")

func (s failingSource) ScanType(t string) Cursor {
	c := s.Source.ScanType(t)
	if t != s.typ {
		return c
	}
	return &failingCursor{Cursor: c, left: s.n}
}

type failingCursor struct {
	Cursor
	left int
	err  error
}

func (c *failingCursor) Next() bool {
	if c.left == 0 {
		c.err = errPage
		return false
	}
	c.left--
	return c.Cursor.Next()
}

func (c *failingCursor) Err() error { return c.err }

// TestSplitFailureHygiene: a write error or a storage error in a later
// job ends the split with that error, nothing reaches the writer after
// it, every block goes back to the pool and no worker outlives the call.
func TestSplitFailureHygiene(t *testing.T) {
	doc := bigRootDoc(1500)
	tree := plan.Build(compile(t, "CAST MUTATE r", doc))
	var full bytes.Buffer
	if err := executeTree(FromNodes(doc), tree, &full, false, 1, &figures{}); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4*blockSize {
		t.Fatalf("output of %d bytes fills too few blocks", full.Len())
	}
	check := func(name string, procs int, src Source, w io.Writer, want error) {
		t.Helper()
		before := runtime.NumGoroutine()
		var f figures
		if err := executeTree(src, tree, w, false, procs, &f); !errors.Is(err, want) {
			t.Fatalf("%s, %d workers: err = %v, want %v", name, procs, err, want)
		}
		if f.jobs != 3 || f.workers != min(procs, 3) {
			t.Fatalf("%s: %d jobs on %d workers, want 3 on %d", name, f.jobs, f.workers, min(procs, 3))
		}
		if f.out != 0 {
			t.Errorf("%s: %d blocks not returned to the pool", name, f.out)
		}
		if after := settledGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after", name, before, after)
		}
	}
	for _, procs := range []int{2, 4} {
		for _, k := range []int{0, 1, blockSize - 1, blockSize, blockSize + 1, 3 * blockSize, 3*blockSize + 7, full.Len() - 1} {
			w := &failAfter{limit: k}
			check(fmt.Sprintf("write fails after %d bytes", k), procs, FromNodes(doc), w, errSinkFull)
			if w.after != 0 {
				t.Errorf("limit %d: %d writes after the failure", k, w.after)
			}
			if !bytes.HasPrefix(full.Bytes(), w.out.Bytes()) || w.out.Len() != k {
				t.Errorf("limit %d: wrote %d bytes, not the output's first %d", k, w.out.Len(), k)
			}
		}
		// A cursor of the last job fails partway through its sequence;
		// the walk goes on without it, rendering c elements without
		// their d kid, none of which may leave.
		for _, n := range []int{0, 700} {
			var out bytes.Buffer
			src := failingSource{FromNodes(doc), strings.Join([]string{"r", "c", "d"}, xmltree.TypeSep), n}
			check(fmt.Sprintf("scan of d fails after %d nodes", n), procs, src, &out, errPage)
			if !bytes.HasPrefix(full.Bytes(), out.Bytes()) {
				t.Errorf("scan failure after %d nodes: output is not a prefix of the full output", n)
			}
			if d := bytes.Count(out.Bytes(), []byte("<d>")); d > n {
				t.Errorf("scan failure after %d nodes: %d of them written", n, d)
			}
		}
	}
}

// slowStart is a writer whose first write waits, so that the jobs behind
// the first one fill the split's blocks meanwhile.
type slowStart struct {
	n int64
}

func (s *slowStart) Write(p []byte) (int, error) {
	if s.n == 0 {
		time.Sleep(50 * time.Millisecond)
	}
	s.n += int64(len(p))
	return len(p), nil
}

// TestSplitHoldsItsCap: on a document whose later jobs are larger than
// the cap, the jobs behind a slow first one fill the cap and wait: the
// blocks held never exceed it, and every one comes back.
func TestSplitHoldsItsCap(t *testing.T) {
	doc := bigRootDoc(20000) // ~2 MB per job
	tree := plan.Build(compile(t, "CAST MUTATE r", doc))
	for _, procs := range []int{2, 3} {
		w := &slowStart{}
		var f figures
		if err := executeTree(FromNodes(doc), tree, w, false, procs, &f); err != nil {
			t.Fatal(err)
		}
		if w.n < 3*maxBlocks*blockSize {
			t.Fatalf("output of %d bytes does not exceed the cap", w.n)
		}
		if f.held > maxBlocks || f.held < maxBlocks-2 || f.out != 0 {
			t.Errorf("%d workers: held %d blocks at most (cap %d), %d out at the end", procs, f.held, maxBlocks, f.out)
		}
	}
}

// panicSource panics when a scan of its type advances past n nodes:
// by then the job's worker holds a block it has partly filled.
type panicSource struct {
	Source
	typ string
	n   int
}

func (s panicSource) ScanType(t string) Cursor {
	c := s.Source.ScanType(t)
	if t != s.typ {
		return c
	}
	return &panicCursor{c, s.n}
}

type panicCursor struct {
	Cursor
	left int
}

func (c *panicCursor) Next() bool {
	if c.left == 0 {
		panic("cursor broke")
	}
	c.left--
	return c.Cursor.Next()
}

// panicAfter is a writer that panics on its nth write.
type panicAfter struct{ n int }

func (p *panicAfter) Write(b []byte) (int, error) {
	if p.n--; p.n == 0 {
		panic("writer broke")
	}
	return len(b), nil
}

// TestSplitPanics: a panic on a worker is raised again on the calling
// goroutine, and a panic of the writer goes on, only after every worker
// has ended and every block is back in the pool.
func TestSplitPanics(t *testing.T) {
	doc := bigRootDoc(1500)
	tree := plan.Build(compile(t, "CAST MUTATE r", doc))
	cases := []struct {
		name string
		src  Source
		w    io.Writer
		want string
	}{
		{"worker", panicSource{FromNodes(doc), "r" + xmltree.TypeSep + "b", 500}, io.Discard, "cursor broke"},
		{"writer", FromNodes(doc), &panicAfter{n: 3}, "writer broke"},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		var f figures
		func() {
			defer func() {
				if p := recover(); p != c.want {
					t.Errorf("%s: recovered %v, want %q", c.name, p, c.want)
				}
			}()
			executeTree(c.src, tree, c.w, false, 2, &f)
		}()
		if f.out != 0 {
			t.Errorf("%s: %d blocks not returned to the pool", c.name, f.out)
		}
		if after := settledGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after", c.name, before, after)
		}
	}
}

// settledGoroutines returns the goroutine count once it is back at want,
// or after a second: a worker's goroutine may still be between its last
// deferred call, which the split waits for, and its exit.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}
