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

// TestEngineStreamExecAuto: with a streamable guard and a StreamTo sink,
// the engine auto-picks the one-pass executor and its bytes equal the
// materialized rendering.
func TestEngineStreamExecAuto(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	rendered, err := eng.Run(ctx, "books", streamableGuard, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("run")
	sp := tr.Root()
	var out strings.Builder
	res, err := eng.Run(ctx, "books", streamableGuard, RunOpts{Span: sp, StreamTo: &out})
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.StreamExec {
		t.Fatalf("streamable guard did not take the one-pass path (plan: %s)", res.Plan)
	}
	if !res.Plan.Streamable || res.Plan.Scans == 0 {
		t.Errorf("plan verdict = %+v, want streamable with scans", res.Plan)
	}
	if out.String() != rendered.Output.XML(false) {
		t.Errorf("one-pass bytes differ from rendered:\n%q\nvs\n%q", out.String(), rendered.Output.XML(false))
	}
	if res.Streamed != rendered.Output.Size() {
		t.Errorf("streamed %d nodes, tree has %d", res.Streamed, rendered.Output.Size())
	}
	if v, ok := sp.Attr("streamed"); !ok || v != "1" {
		t.Errorf("streamed attr = %q, %v", v, ok)
	}
	if v, ok := sp.Attr("plan"); !ok || !strings.Contains(v, "streamable") {
		t.Errorf("plan attr = %q, %v", v, ok)
	}
	wantPageIO(t, tr, "stream")
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

// TestEngineStreamExecFallback: a store-backed guard streamed in auto mode
// falls back to the join-backed streamer with identical bytes.
func TestEngineStreamExecFallback(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	tr := obs.New("run")
	rendered, err := eng.Run(ctx, "books", sampleGuard, RunOpts{Span: tr.Root()})
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantPageIO(t, tr, "render")
	tr = obs.New("run")
	var out strings.Builder
	res, err := eng.Run(ctx, "books", sampleGuard, RunOpts{Span: tr.Root(), StreamTo: &out})
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantPageIO(t, tr, "stream")
	if res.StreamExec {
		t.Error("cross-axis guard took the one-pass path")
	}
	if res.Plan.Streamable || res.Plan.Reason == "" {
		t.Errorf("plan verdict = %+v, want store-backed with reason", res.Plan)
	}
	if out.String() != rendered.Output.XML(false) {
		t.Errorf("fallback bytes differ from rendered")
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
