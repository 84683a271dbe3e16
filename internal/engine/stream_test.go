package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

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

// TestEngineExecStreamForced: ExecStream demands the one-pass executor —
// store-backed guards fail with ErrNotStreamable, and a missing sink is an
// immediate error.
func TestEngineExecStreamForced(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	var out strings.Builder
	if _, err := eng.Run(ctx, "books", sampleGuard, RunOpts{StreamTo: &out, Exec: ExecStream}); !errors.Is(err, ErrNotStreamable) {
		t.Errorf("forced stream on store-backed guard: err = %v, want ErrNotStreamable", err)
	}
	if _, err := eng.Run(ctx, "books", streamableGuard, RunOpts{Exec: ExecStream}); err == nil {
		t.Error("ExecStream without StreamTo should fail")
	}
	res, err := eng.Run(ctx, "books", streamableGuard, RunOpts{StreamTo: &out, Exec: ExecStream})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StreamExec {
		t.Error("forced stream did not mark StreamExec")
	}
}

// TestEngineExecStoreForced: ExecStore pins the join-backed path even for
// streamable guards (the bench's comparison baseline).
func TestEngineExecStoreForced(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t)
	shredSample(t, eng, "books")

	var auto, forced strings.Builder
	if _, err := eng.Run(ctx, "books", streamableGuard, RunOpts{StreamTo: &auto}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, "books", streamableGuard, RunOpts{StreamTo: &forced, Exec: ExecStore})
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamExec {
		t.Error("ExecStore still took the one-pass path")
	}
	if !res.Plan.Streamable {
		t.Error("verdict should still report streamable")
	}
	if auto.String() != forced.String() {
		t.Errorf("paths disagree:\n%q\nvs\n%q", auto.String(), forced.String())
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
