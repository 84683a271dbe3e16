package engine

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xmorph/internal/core"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/kvstore"
	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

const sampleXML = `<data>
  <book><title>X</title><author><name>V</name></author></book>
  <book><title>Y</title><author><name>U</name></author></book>
</data>`

const sampleGuard = "MORPH author [ name title ]"

func newEngine(t *testing.T) *Engine {
	t.Helper()
	eng := OpenMemory()
	t.Cleanup(func() { eng.Close() })
	return eng
}

func shredSample(t *testing.T, eng *Engine, name string) {
	t.Helper()
	if _, err := eng.Shred(context.Background(), name, strings.NewReader(sampleXML), nil); err != nil {
		t.Fatal(err)
	}
}

// runXML runs guard over the stored document name and returns the XML
// the Run wrote along with its result.
func runXML(t *testing.T, eng *Engine, name, guard string, opts RunOpts) (string, *RunResult) {
	t.Helper()
	var out strings.Builder
	opts.StreamTo = &out
	res, err := eng.Run(context.Background(), name, guard, opts)
	if err != nil {
		t.Fatalf("run %s: %v", guard, err)
	}
	return out.String(), res
}

// transformed is the in-memory oracle: core.Transform over the parsed
// document, which shares no store path with Run.
func transformed(t *testing.T, guard, xml string) *core.Result {
	t.Helper()
	res, err := core.Transform(guard, xmltree.MustParse(xml), nil)
	if err != nil {
		t.Fatalf("transform %s: %v", guard, err)
	}
	return res
}

// TestEngineRunMatchesCore checks the store pipeline against the
// in-memory oracle: core.Transform over the parsed document shares no
// store path with Run, so byte-equal outputs, compact and indented, and
// equal loss reports mean the shape load, the lazy type sequences, the
// guard cache and the streamed emit changed nothing.
func TestEngineRunMatchesCore(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")

	for _, g := range []string{
		sampleGuard,
		streamableGuard,
		// Moving author below title duplicates the shared author under each
		// title, so the static check demands a widening cast.
		"CAST-WIDENING MUTATE title [ author [ name ] ]",
		"CAST MORPH book [ title ] | TRANSLATE book -> volume",
	} {
		want := transformed(t, g, sampleXML)
		for _, indent := range []bool{false, true} {
			got, res := runXML(t, eng, "books", g, RunOpts{Indent: indent})
			if exp := want.Output.XML(indent); got != exp {
				t.Errorf("%s (indent %v): engine output diverges from the in-memory transform:\n%s\nvs\n%s", g, indent, got, exp)
			}
			if got, exp := res.Loss.String(), want.Loss.String(); got != exp {
				t.Errorf("%s: loss report diverges: %q vs %q", g, got, exp)
			}
		}
	}
}

// TestEngineRunSpans: a cold traced Run carries every pipeline stage and
// the annotations each stage owes — page I/O on the store phases, the
// resolved label count, the loss verdict, and the render's join stats.
func TestEngineRunSpans(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")
	tr := obs.New("run")
	res, err := eng.Run(context.Background(), "books", sampleGuard, RunOpts{Span: tr.Root(), StreamTo: io.Discard})
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Streamed == 0 {
		t.Fatal("empty output")
	}
	text := tr.Text()
	for _, span := range []string{"load-shape", "compile", "parse-guard", "typecheck", "loss-check", "load-doc", "stream"} {
		if !strings.Contains(text, span) {
			t.Errorf("trace missing span %q:\n%s", span, text)
		}
	}
	for _, attr := range []string{"pages-read=", "labels=", "verdict=strongly-typed", "joins=", "closest-pairs=", "nodes-out=", "bytes-out="} {
		if !strings.Contains(text, attr) {
			t.Errorf("trace missing annotation %q:\n%s", attr, text)
		}
	}
}

// TestEngineStreamMatchesRender: a store-backed Run writes, compact and
// indented, the bytes of serializing the in-memory transform's tree, and
// counts its nodes; a Run without a writer is refused.
func TestEngineStreamMatchesRender(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")

	want := transformed(t, sampleGuard, sampleXML).Output
	for _, indent := range []bool{false, true} {
		got, res := runXML(t, eng, "books", sampleGuard, RunOpts{Indent: indent})
		if exp := want.XML(indent); got != exp {
			t.Errorf("indent %v: streamed bytes differ from the serialized tree:\n%q\nvs\n%q", indent, got, exp)
		}
		if res.Streamed != want.Size() || res.Plan.Streamable {
			t.Errorf("streamed run: nodes=%d (tree %d) one-pass=%v", res.Streamed, want.Size(), res.Plan.Streamable)
		}
	}
	if _, err := eng.Run(context.Background(), "books", sampleGuard, RunOpts{}); !errors.Is(err, errNoWriter) {
		t.Errorf("Run without StreamTo: err = %v, want errNoWriter", err)
	}
}

func TestGuardCacheHitsAndReshredInvalidation(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	first, err := eng.Check(ctx, "books", sampleGuard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := eng.CacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("after first check: hits=%d misses=%d", hits, misses)
	}
	_, res := runXML(t, eng, "books", sampleGuard, RunOpts{})
	if !res.CacheHit {
		t.Error("second compile of the same guard missed the cache")
	}
	if res.Checked != first {
		t.Error("cache returned a different Checked value")
	}

	// Re-shredding under the same name gets a fresh version: the cached
	// compilation against the old shape must not be served.
	if err := eng.Drop(ctx, "books", nil); err != nil {
		t.Fatal(err)
	}
	reshaped := `<data><book><title>Z</title><isbn>9</isbn><author><name>W</name></author></book></data>`
	if _, err := eng.Shred(ctx, "books", strings.NewReader(reshaped), nil); err != nil {
		t.Fatal(err)
	}
	got, res2 := runXML(t, eng, "books", sampleGuard, RunOpts{})
	if res2.CacheHit {
		t.Error("compile after re-shred served the stale cached guard")
	}
	if res2.Checked == first {
		t.Error("re-shredded document reused the old compilation")
	}
	if !strings.Contains(got, "<name>W</name>") {
		t.Errorf("post-reshred output not from the new document: %s", got)
	}
}

func TestEngineSentinelErrors(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	if _, err := eng.Run(ctx, "missing", sampleGuard, RunOpts{StreamTo: io.Discard}); !errors.Is(err, ErrNotFound) {
		t.Errorf("run on missing doc: %v, want ErrNotFound", err)
	}
	if _, err := eng.Shred(ctx, "books", strings.NewReader(sampleXML), nil); !errors.Is(err, ErrExists) {
		t.Errorf("double shred: %v, want ErrExists", err)
	}
	if err := eng.Drop(ctx, "missing", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("drop missing: %v, want ErrNotFound", err)
	}
	if _, err := eng.Shape(ctx, "missing", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("shape missing: %v, want ErrNotFound", err)
	}
}

// TestEngineConcurrentShredOneName: of two shreds of one name racing
// each other, one succeeds and the other fails with ErrExists, which the
// server answers with 409.
func TestEngineConcurrentShredOneName(t *testing.T) {
	eng := newEngine(t)
	errs := make([]error, 2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = eng.Shred(context.Background(), "books", strings.NewReader(sampleXML), nil)
		}(i)
	}
	close(start)
	wg.Wait()
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("concurrent shreds of one name returned %v and %v, want one success", errs[0], errs[1])
	}
	loser := errors.Join(errs[0], errs[1])
	if !errors.Is(loser, ErrExists) {
		t.Fatalf("losing shred: %v, want ErrExists", loser)
	}
	if got := httpStatus(loser); got != http.StatusConflict {
		t.Errorf("losing shred maps to %d, want 409", got)
	}
	if names, err := eng.Docs(context.Background(), nil); err != nil || len(names) != 1 {
		t.Errorf("documents after the race: %v (err %v), want one", names, err)
	}
}

func TestEngineHonorsContext(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.Run(expired, "books", sampleGuard, RunOpts{StreamTo: io.Discard}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("run under expired context: %v", err)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := eng.Query(cancelled, "books", sampleGuard, `for $a in doc("books")//author return $a`, QueryOpts{}); !errors.Is(err, context.Canceled) {
		t.Errorf("query under cancelled context: %v", err)
	}
}

func TestEngineQuery(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	res, err := eng.Query(ctx, "books", sampleGuard,
		`for $a in doc("books")//author where $a/title = "X" return string($a/name)`, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(res.Answer) != "V" {
		t.Errorf("answer = %q, want V", res.Answer)
	}
	if res.KeptTypes == 0 || res.TotalTypes < res.KeptTypes {
		t.Errorf("projection stats: kept=%d total=%d", res.KeptTypes, res.TotalTypes)
	}
	// The answer carries Run's provenance: a cold compile, the planner's
	// verdict (sampleGuard hoists author above title: an up-join, not
	// streamable), and the join-backed execution path.
	if res.CacheHit {
		t.Error("first query claims a warm cache")
	}
	if res.Plan.Streamable || res.Exec != "store" {
		t.Errorf("result provenance = plan %v exec %q", res.Plan, res.Exec)
	}
	again, err := eng.Query(ctx, "books", sampleGuard, `for $a in doc("books")//author return $a`, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeated query missed the guard cache")
	}
}

func TestEnginePersistsAcrossOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.db")
	eng, err := Open(path, WithCachePages(64))
	if err != nil {
		t.Fatal(err)
	}
	shredSample(t, eng, "books")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Recoveries; got != 0 {
		t.Errorf("clean close still replayed the WAL: recoveries=%d", got)
	}
	st.Close()

	reopened, err := Open(path, WithCachePages(64))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, res := runXML(t, reopened, "books", sampleGuard, RunOpts{})
	if !strings.Contains(got, "<name>V</name>") {
		t.Errorf("reopened run output: %s", got)
	}
	if res.PagesRead == 0 {
		t.Error("cold run read no pages")
	}
}

func TestGuardCacheLRUEviction(t *testing.T) {
	c := newGuardCache(2)
	a, b, d := &Checked{}, &Checked{}, &Checked{}
	streamable := plan.Decision{Streamable: true, Scans: 3}
	c.put(1, 7, "a", a, streamable)
	c.put(1, 7, "b", b, plan.Decision{})
	if got, v := c.get(1, 7, "a"); got != a || v != streamable {
		t.Fatalf("a evicted too early or verdict lost: %+v", v)
	}
	c.put(1, 7, "d", d, plan.Decision{}) // evicts b (least recently used)
	if got, _ := c.get(1, 7, "b"); got != nil {
		t.Error("b survived past capacity")
	}
	ga, _ := c.get(1, 7, "a")
	gd, _ := c.get(1, 7, "d")
	if ga != a || gd != d {
		t.Error("a or d missing after eviction")
	}
	hits, misses := c.stats()
	if hits != 3 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestOneShotHelpers(t *testing.T) {
	res, err := TransformReader("MORPH title", strings.NewReader(sampleXML), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Output.XML(false); !strings.Contains(got, "<title>X</title>") {
		t.Errorf("one-shot output: %s", got)
	}
	v := Verify(res.Source, res.Output)
	if v.SrcVertices == 0 {
		t.Error("verify saw an empty source graph")
	}
	tree, err := Explain("MORPH author [ name ]")
	if err != nil || !strings.Contains(tree, "closest") {
		t.Errorf("explain = %q, err %v", tree, err)
	}
	g, err := InferGuard(`for $a in doc("x")/author return $a/name`)
	if err != nil || g != "MORPH author [ name ]" {
		t.Errorf("infer = %q, err %v", g, err)
	}
}

// TestJoinRunAllocs bounds the allocations of a Run the planner cannot
// stream, benchmark/'s invert class, over an XMark sf 0.05 document with
// the guard cache warm. Its closest joins run over type sequences held
// as key and value arenas, a few allocations per type; when every
// stored vertex became a heap node, a Run took 5 246.
func TestJoinRunAllocs(t *testing.T) {
	const guard = "CAST MORPH bidder [ open_auction [ itemref ] ]"
	eng := newEngine(t)
	ctx := context.Background()
	xml := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}).XML(false)
	if _, err := eng.Shred(ctx, "d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := eng.Run(ctx, "d", guard, RunOpts{StreamTo: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Streamable {
			t.Fatal("the invert guard streamed: it no longer measures the joins")
		}
	}
	run() // warm the guard cache
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("invert Run: %.0f allocations", allocs)
	if allocs > 500 {
		t.Errorf("invert Run allocates %.0f times, want <= 500", allocs)
	}
}

// TestColdRunReadsEachPageOnce: an identity Run over a stored XMark
// sf 0.05 document, its store reopened cold with a pool a tenth of its
// pages, reads each page about once, serial and split across cores.
// It keeps a cursor open on every one of the document's 244 types, and
// a scan fetches a leaf only when it crosses into it, so a leaf is used
// as soon as it is read. When each crossing prefetched the next 8
// leaves, the cursors evicted each other's prefetched leaves before
// reaching them, and the Run read 2.4 times the file.
func TestColdRunReadsEachPageOnce(t *testing.T) {
	const guard = "CAST MUTATE site"
	path := filepath.Join(t.TempDir(), "cold.db")
	eng, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	xml := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}).XML(false)
	if _, err := eng.Shred(context.Background(), "d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	pages := fi.Size() / kvstore.PageSize
	// The split needs a second core; the serial Run counts the others busy.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	run := func(serial bool) {
		eng, err := Open(path, WithCachePages(int(pages/10)))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if serial {
			others := int32(runtime.GOMAXPROCS(0) - 1)
			reading.Add(others)
			defer reading.Add(-others)
		}
		tr := obs.New("run")
		before := eng.Stats().BlocksRead
		if _, err := eng.Run(context.Background(), "d", guard, RunOpts{StreamTo: io.Discard, Span: tr.Root()}); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		read := eng.Stats().BlocksRead - before
		workers, _ := tr.Root().FindAttr("workers")
		t.Logf("serial %v: %s workers read %d blocks of a %d-page file (%.2fx)", serial, workers, read, pages, float64(read)/float64(pages))
		if split := workers != "1"; split == serial {
			t.Fatalf("serial %v: the Run rendered on %s workers", serial, workers)
		}
		if float64(read) > 1.3*float64(pages) {
			t.Errorf("serial %v: a cold identity Run read %d blocks of a %d-page file, want at most 1.3x", serial, read, pages)
		}
	}
	run(true)
	run(false)
}
