package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmorph/internal/update"
	"xmorph/internal/xmltree"
)

// reconstruct rebuilds the stored document's full tree (test oracle).
func reconstruct(t *testing.T, eng *Engine, name string) *xmltree.Document {
	t.Helper()
	v := eng.st.View()
	defer v.Close()
	d, err := v.Doc(name)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := d.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEngineUpdate(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	info, err := eng.Update(ctx, "books", `insert <isbn>9</isbn> into data.book`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ops != 1 || info.NodesInserted != 2 {
		t.Errorf("info = %+v, want 1 op, 2 nodes inserted", info)
	}
	if info.Delta.Kind != update.Widened {
		t.Errorf("delta kind = %v, want Widened", info.Delta.Kind)
	}
	if got, _ := runXML(t, eng, "books", "MORPH book [ isbn ]", RunOpts{}); strings.Count(got, "<isbn>9</isbn>") != 2 {
		t.Errorf("update not visible to Run: %s", got)
	}

	// Error surface: missing document, script syntax errors.
	if _, err := eng.Update(ctx, "missing", `delete a.b`, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing doc: %v, want ErrNotFound", err)
	}
	var syn *update.SyntaxError
	if _, err := eng.Update(ctx, "books", `mangle data.book`, nil); !errors.As(err, &syn) {
		t.Errorf("bad script: %v, want *update.SyntaxError", err)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := eng.Update(cancelled, "books", `delete data.book`, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("update under cancelled context: %v", err)
	}
}

// TestGuardCacheAcrossUpdates is the shape-aware invalidation contract:
// a shape-preserving update keeps compiled guards warm (same version,
// same shape hash), a shape-changing update cold-starts them, and the
// stale compilation is never served for the new shape.
func TestGuardCacheAcrossUpdates(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	if _, err := eng.Check(ctx, "books", sampleGuard, nil); err != nil {
		t.Fatal(err)
	}

	// Replacing a book with an identically-shaped one cannot be observed
	// by the type system: the cache must stay warm.
	same := `replace data.book with <book><title>Z</title><author><name>W</name></author></book>`
	info, err := eng.Update(ctx, "books", same, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Delta.Kind != update.Unchanged {
		t.Fatalf("shape-preserving update delta = %v", info.Delta)
	}
	got, res := runXML(t, eng, "books", sampleGuard, RunOpts{})
	if !res.CacheHit {
		t.Error("shape-preserving update evicted the compiled guard")
	}
	if !strings.Contains(got, "<name>W</name>") {
		t.Errorf("run after update misses new content: %s", got)
	}

	// Deleting every title narrows the shape: the hash moves and the
	// cached compilation (whose plan still mentions title) stops matching.
	info, err = eng.Update(ctx, "books", `delete data.book.title`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Delta.Kind == update.Unchanged {
		t.Fatalf("delete title delta = %v, want a shape change", info.Delta)
	}
	if _, res = runXML(t, eng, "books", "MORPH author [ name ]", RunOpts{}); res.CacheHit {
		t.Error("shape-changing update left a stale compilation serveable")
	}
}

// TestEngineUpdateDifferential: after each edit script, the updated
// engine's Run and Query output must be byte-identical to a fresh engine
// shredded from the updated document's serialization (drop + re-shred
// oracle), and the projection stats must match.
func TestEngineUpdateDifferential(t *testing.T) {
	ctx := context.Background()
	guard := "MORPH author [ name title ]"
	query := `for $a in doc("d")//author return string($a/name)`
	scripts := []string{
		`insert <author><name>N</name></author> into data.book`,
		`insert <book><title>T2</title><author><name>M</name></author></book> before data.book`,
		`insert <note>n</note> into data.book`,
		`replace data.book.title with <title>R</title>`,
		`insert <extra>e</extra> after data.book.title ; delete data.book.extra`,
		`delete data.book.note`,
	}
	eng := newEngine(t)
	shredSample(t, eng, "d")
	for i, script := range scripts {
		if _, err := eng.Update(ctx, "d", script, nil); err != nil {
			t.Fatalf("script %d %q: %v", i, script, err)
		}
		oracle := newEngine(t)
		cur := reconstruct(t, eng, "d")
		if _, err := oracle.Shred(ctx, "d", strings.NewReader(cur.XML(false)), nil); err != nil {
			t.Fatalf("script %d: oracle shred: %v", i, err)
		}
		g, _ := runXML(t, eng, "d", guard, RunOpts{})
		w, _ := runXML(t, oracle, "d", guard, RunOpts{})
		if g != w {
			t.Errorf("script %d: Run diverges from re-shred:\n%s\nvs\n%s", i, g, w)
		}
		gq, err := eng.Query(ctx, "d", guard, query, QueryOpts{})
		if err != nil {
			t.Fatalf("script %d: updated query: %v", i, err)
		}
		wq, err := oracle.Query(ctx, "d", guard, query, QueryOpts{})
		if err != nil {
			t.Fatalf("script %d: oracle query: %v", i, err)
		}
		if gq.Answer != wq.Answer {
			t.Errorf("script %d: Query diverges: %q vs %q", i, gq.Answer, wq.Answer)
		}
		if gq.KeptTypes != wq.KeptTypes || gq.TotalTypes != wq.TotalTypes {
			t.Errorf("script %d: projection stats diverge: %d/%d vs %d/%d",
				i, gq.KeptTypes, gq.TotalTypes, wq.KeptTypes, wq.TotalTypes)
		}
		gs, err := eng.Shape(ctx, "d", nil)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := oracle.Shape(ctx, "d", nil)
		if err != nil {
			t.Fatal(err)
		}
		if gs.String() != ws.String() {
			t.Errorf("script %d: shape diverges:\n%s\nvs\n%s", i, gs, ws)
		}
	}
}

// TestQueryDuringUpdate: queries racing edit scripts that widen and
// narrow the shape each answer from one committed state — every answer
// equals the answer before or after some write, never a mix. The pruned
// projection's scan cursors stay open across its whole emission, so this
// holds only because every cursor reads the query's one view.
func TestQueryDuringUpdate(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "d")
	query := `for $b in doc("d")//book return concat(string($b/title), "/", string(count($b/author)), "/", string(count($b/author/name)))`
	round := []string{
		`insert <isbn>9</isbn> into data.book`,
		`insert <author><name>N</name></author> into data.book`,
		`delete data.book.isbn`,
		`replace data.book with <book><title>R</title><author><name>M</name></author></book>`,
		`insert <book><title>T</title><author><name>K</name><name>L</name></author></book> into data`,
	}
	answer := func() string {
		t.Helper()
		res, err := eng.Query(ctx, "d", streamableGuard, query, QueryOpts{})
		if err != nil {
			t.Error(err)
			return ""
		}
		if res.Exec != "stream" {
			t.Errorf("query ran on %q partners, want the scans", res.Exec)
		}
		return res.Answer
	}

	states := map[string]bool{answer(): true}
	var (
		done    atomic.Bool
		mu      sync.Mutex
		seen    []string
		started sync.WaitGroup
		readers sync.WaitGroup
	)
	stop := func() {
		done.Store(true)
		readers.Wait()
	}
	for r := 0; r < 2; r++ {
		started.Add(1)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for first := true; first || !done.Load(); first = false {
				a := answer()
				mu.Lock()
				seen = append(seen, a)
				mu.Unlock()
				if first {
					started.Done()
				}
			}
		}()
	}
	started.Wait() // both readers are querying before the first write
	for i := 0; i < 3; i++ {
		for _, script := range round {
			if _, err := eng.Update(ctx, "d", script, nil); err != nil {
				stop()
				t.Fatalf("%q: %v", script, err)
			}
			states[answer()] = true
		}
	}
	stop()

	for _, a := range seen {
		if !states[a] {
			t.Fatalf("answer matches no committed state: %q", a)
		}
	}
	t.Logf("%d racing answers over %d committed states", len(seen), len(states))
}

// TestOpenConvertsLegacyShapeRecords opens a store written before
// shapes became rows: "books" as shredded, and "catalog" updated and then
// stripped of its hash record, as a store from before hash records
// holds its documents. The first Open converts both; each document's
// shape and hash are then a re-shred's, its compilations cache, and a
// second Open finds nothing left to convert.
func TestOpenConvertsLegacyShapeRecords(t *testing.T) {
	ctx := context.Background()
	image, err := os.ReadFile(filepath.Join("..", "store", "testdata", "legacy_shape.db"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.db")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Puts == 0 || s.Deletes == 0 {
		t.Errorf("the first Open made %d puts and %d deletes, want a conversion", s.Puts, s.Deletes)
	}
	for _, c := range []struct{ name, guard string }{
		{"books", sampleGuard},
		{"catalog", "MORPH item [ name stock ]"},
	} {
		oracle := newEngine(t)
		if _, err := oracle.Shred(ctx, c.name, strings.NewReader(reconstruct(t, eng, c.name).XML(false)), nil); err != nil {
			t.Fatal(err)
		}
		got, err1 := eng.Shape(ctx, c.name, nil)
		want, err2 := oracle.Shape(ctx, c.name, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: shapes: %v %v", c.name, err1, err2)
		}
		if got.String() != want.String() {
			t.Errorf("%s: converted shape\n%s\nwant a re-shred's\n%s", c.name, got, want)
		}
		if h, w := storedHash(t, eng, c.name), storedHash(t, oracle, c.name); h != w {
			t.Errorf("%s: converted hash %x, want a re-shred's %x", c.name, h, w)
		}
		hits, _ := eng.CacheStats()
		for i := 0; i < 2; i++ {
			if _, err := eng.Check(ctx, c.name, c.guard, nil); err != nil {
				t.Fatalf("%s: check %d: %v", c.name, i, err)
			}
		}
		if now, _ := eng.CacheStats(); now != hits+1 {
			t.Errorf("%s: %d cache hits over two checks, want 1", c.name, now-hits)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if s := again.Stats(); s.Puts != 0 || s.Deletes != 0 {
		t.Errorf("the second Open made %d puts and %d deletes, want none", s.Puts, s.Deletes)
	}
}

// storedHash reads a document's stored shape hash.
func storedHash(t *testing.T, eng *Engine, name string) uint64 {
	t.Helper()
	v := eng.st.View()
	defer v.Close()
	h, ok, err := v.ShapeHash(name)
	if err != nil || !ok {
		t.Fatalf("%s: shape hash: ok=%v err=%v", name, ok, err)
	}
	return h
}
