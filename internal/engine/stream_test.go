package engine

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/obs"
)

// streamableGuard is pure descendant projection: every join is down-axis,
// so the planner marks it streamable.
const streamableGuard = "MORPH book [ title author [ name ] ]"

// TestEngineStreamExecAuto: a streamable guard takes the one-pass
// executor, and its bytes, compact and indented, equal the in-memory
// transform's serialized tree.
func TestEngineStreamExecAuto(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")

	want := transformed(t, streamableGuard, sampleXML).Output
	for _, indent := range []bool{false, true} {
		tr := obs.New("run")
		sp := tr.Root()
		got, res := runXML(t, eng, "books", streamableGuard, RunOpts{Span: sp, Indent: indent})
		tr.Finish()
		if !res.Plan.Streamable || res.Plan.Scans == 0 {
			t.Errorf("plan verdict = %+v, want streamable with scans", res.Plan)
		}
		if exp := want.XML(indent); got != exp {
			t.Errorf("indent %v: one-pass bytes differ from the serialized tree:\n%q\nvs\n%q", indent, got, exp)
		}
		if res.Streamed != want.Size() {
			t.Errorf("streamed %d nodes, tree has %d", res.Streamed, want.Size())
		}
		if v, ok := sp.Attr("streamed"); !ok || v != "1" {
			t.Errorf("streamed attr = %q, %v", v, ok)
		}
		if v, ok := sp.Attr("plan"); !ok || !strings.Contains(v, "streamable") {
			t.Errorf("plan attr = %q, %v", v, ok)
		}
		wantPageIO(t, tr, "stream")
	}
}

// wantPageIO asserts the named emit span of a traced Run carries both
// page-I/O attributes: whichever executor ran, the span where the type
// sequences are read must say what reading them cost.
func wantPageIO(t *testing.T, tr *obs.Trace, span string) {
	t.Helper()
	for _, line := range strings.Split(tr.Text(), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), span+" ") {
			continue
		}
		for _, attr := range []string{"pages-read=", "page-hits="} {
			if !strings.Contains(line, attr) {
				t.Errorf("%q span lacks %s: %s", span, attr, line)
			}
		}
		return
	}
	t.Fatalf("trace has no %q span:\n%s", span, tr.Text())
}

// TestEngineStreamExecFallback: a store-backed guard takes the
// join-backed partners, its stream span carries the page I/O, and its
// bytes, compact and indented, equal the in-memory transform's.
func TestEngineStreamExecFallback(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")

	want := transformed(t, sampleGuard, sampleXML).Output
	for _, indent := range []bool{false, true} {
		tr := obs.New("run")
		got, res := runXML(t, eng, "books", sampleGuard, RunOpts{Span: tr.Root(), Indent: indent})
		tr.Finish()
		wantPageIO(t, tr, "stream")
		if _, ok := tr.Root().Attr("streamed"); ok {
			t.Error("cross-axis guard took the one-pass path")
		}
		if res.Plan.Streamable || res.Plan.Reason == "" {
			t.Errorf("plan verdict = %+v, want store-backed with reason", res.Plan)
		}
		if exp := want.XML(indent); got != exp {
			t.Errorf("indent %v: fallback bytes differ from the serialized tree:\n%q\nvs\n%q", indent, got, exp)
		}
	}
}

// TestRunRecordsTransformMetrics: every successful stored Run, one-pass
// or join-backed, adds one to the transform counter and one render-time
// observation; every store-backed Run adds one to the fallback counter.
func TestRunRecordsTransformMetrics(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")
	transforms := obs.Default.Counter("xmorph_transforms_total")
	renders := obs.Default.Histogram("xmorph_render_seconds", obs.DurationBuckets)
	fallbacks := obs.Default.Counter("engine_stream_fallbacks_total")
	for _, c := range []struct {
		guard    string
		fallback int64
	}{{streamableGuard, 0}, {sampleGuard, 1}} {
		t0, r0, f0 := transforms.Value(), renders.Snapshot().Count, fallbacks.Value()
		runXML(t, eng, "books", c.guard, RunOpts{})
		if d := transforms.Value() - t0; d != 1 {
			t.Errorf("%s: xmorph_transforms_total moved by %d, want 1", c.guard, d)
		}
		if d := renders.Snapshot().Count - r0; d != 1 {
			t.Errorf("%s: xmorph_render_seconds observed %d times, want 1", c.guard, d)
		}
		if d := fallbacks.Value() - f0; d != c.fallback {
			t.Errorf("%s: engine_stream_fallbacks_total moved by %d, want %d", c.guard, d, c.fallback)
		}
	}
}

// TestEngineQueryExec: a guarded query reports the partners its pruned
// projection ran on — forward scans for the benchmark's people query,
// whose projection is streamable; closest joins under an inverting guard —
// and the server's JSON exec field says the same.
func TestEngineQueryExec(t *testing.T) {
	ctx := context.Background()
	eng, _, ts := newTestServer(t, ServerConfig{})
	xml := xmark.Generate(xmark.Config{Factor: 0.002, Seed: 1}).XML(false)
	if _, err := eng.Shred(ctx, "main", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ guard, query, exec string }{
		{"CAST MORPH person [ name emailaddress ] | TRANSLATE person -> individual", `for $p in doc("main")//individual return string($p/name)`, "stream"},
		{"CAST MORPH bidder [ open_auction [ itemref ] ]", `for $b in doc("main")//bidder return count($b/open_auction/itemref)`, "store"},
	} {
		res, err := eng.Query(ctx, "main", c.guard, c.query, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exec != c.exec || res.Answer == "" {
			t.Errorf("%s: exec %q (answer %.40q), want %q", c.guard, res.Exec, res.Answer, c.exec)
		}
		_, data := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "main", "guard": c.guard, "query": c.query})
		var qr struct {
			Answer string `json:"answer"`
			Exec   string `json:"exec"`
		}
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Exec != c.exec || qr.Answer != res.Answer {
			t.Errorf("%s: served exec %q, want %q (answers equal: %v)", c.guard, qr.Exec, c.exec, qr.Answer == res.Answer)
		}
	}
}

// TestEngineDocsCtxAndSpan: Docs honors cancellation and annotates a
// list-docs child span — the same contract as every other facade verb.
func TestEngineDocsCtxAndSpan(t *testing.T) {
	eng := newEngine(t)
	shredSample(t, eng, "books")

	tr := obs.New("docs")
	names, err := eng.Docs(context.Background(), tr.Root())
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "books" {
		t.Errorf("docs = %v", names)
	}
	if !strings.Contains(tr.Text(), "list-docs") {
		t.Errorf("trace missing list-docs child:\n%s", tr.Text())
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Docs(canceled, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Docs: err = %v", err)
	}
}
