// Package engine is the unified facade over the XMorph pipeline: one
// handle owns the store, guard compilation, the information-loss check,
// and the render path, so every entry point (the xmorph CLI, the xmorphd
// daemon, benchmarks) drives the identical code. The facade threads a
// context.Context and an optional *obs.Span through every stage —
// cancellation is checked at stage boundaries, tracing is free when the
// span is nil — and keeps a compiled-guard cache keyed by (guard text,
// document shred version, shape hash), so repeated queries skip the
// compile phase until the document is re-shredded or an in-place Update
// changes its adorned shape.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"xmorph/internal/core"
	"xmorph/internal/kvstore"
	"xmorph/internal/logical"
	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/stream"
	"xmorph/internal/update"
)

// Re-exported result types: callers of the facade (cmd/xmorph, cmd/xmorphd)
// build against engine alone.
type (
	// Checked is a compiled and loss-checked guard, ready to render.
	Checked = core.Checked
	// ShredInfo summarizes a shredded document.
	ShredInfo = store.ShredInfo
	// UpdateInfo summarizes an in-place document update, including the
	// shape delta the edit script induced.
	UpdateInfo = store.UpdateInfo
	// Shape is a document's adorned shape.
	Shape = shape.Shape
)

// Sentinel errors the service layer maps onto HTTP statuses: the store's
// own, which its verbs return.
var (
	// ErrNotFound reports an operation against a document the store does
	// not hold.
	ErrNotFound = store.ErrNotFound
	// ErrExists reports a shred of a name that is already shredded.
	ErrExists = store.ErrExists
)

var (
	metricCacheHits    = obs.Default.Counter("engine_guard_cache_hits_total")
	metricCacheMisses  = obs.Default.Counter("engine_guard_cache_misses_total")
	metricCacheEntries = obs.Default.Gauge("engine_guard_cache_entries")

	// Streaming-executor metrics: runs that took the one-pass path, runs
	// of store-backed guards (join-backed partners), and the nodes the
	// one-pass path emitted.
	metricStreamRuns      = obs.Default.Counter("engine_stream_runs_total")
	metricStreamFallbacks = obs.Default.Counter("engine_stream_fallbacks_total")
	metricStreamNodes     = obs.Default.Counter("engine_stream_nodes_total")

	// Update metrics: edit scripts applied, nodes they touched, and how
	// many changed the document's adorned shape (each of those moves the
	// shape hash and cold-starts the guard cache for that document).
	metricUpdates            = obs.Default.Counter("engine_updates_total")
	metricUpdateNodesIns     = obs.Default.Counter("engine_update_nodes_inserted_total")
	metricUpdateNodesDel     = obs.Default.Counter("engine_update_nodes_deleted_total")
	metricUpdateShapeChanges = obs.Default.Counter("engine_update_shape_changes_total")
)

// Option configures an Engine at Open time; the configuration is
// immutable afterwards.
type Option func(*config)

type config struct {
	storeOpts []store.Option
}

// WithCachePages sets the store's buffer pool size in pages.
func WithCachePages(n int) Option {
	return func(c *config) { c.storeOpts = append(c.storeOpts, store.WithCachePages(n)) }
}

// WithDurability is ignored: every file-backed store commits through
// the write-ahead log.
//
// Deprecated: kept only until the benchmark module stops passing
// it.
func WithDurability(bool) Option { return nil }

// Engine is the unified pipeline handle. It is safe for concurrent use:
// the store serializes writers against readers internally, and cached
// Checked values are immutable after construction.
type Engine struct {
	st    *store.Store
	cache *guardCache
}

// Open opens (or creates) a store file and wraps it in an Engine.
func Open(path string, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	st, err := store.Open(path, cfg.storeOpts...)
	if err != nil {
		return nil, err
	}
	return New(st), nil
}

// OpenMemory builds an Engine over an in-memory store (tests, examples).
func OpenMemory(opts ...Option) *Engine {
	cfg := newConfig(opts)
	return New(store.OpenMemory(cfg.storeOpts...))
}

func newConfig(opts []Option) *config {
	cfg := &config{}
	for _, o := range opts {
		if o != nil {
			o(cfg)
		}
	}
	return cfg
}

// Close syncs and closes the underlying store.
func (e *Engine) Close() error { return e.st.Close() }

// Sync commits the store's dirty pages.
func (e *Engine) Sync() error { return e.st.Sync() }

// Stats exposes the store's block-I/O and buffer-pool counters.
func (e *Engine) Stats() kvstore.Stats { return e.st.Stats() }

// CacheStats reports compiled-guard cache hits and misses since Open.
func (e *Engine) CacheStats() (hits, misses uint64) { return e.cache.stats() }

// Shred streams an XML document into the store under name. Shredding the
// same name twice fails with ErrExists; Drop first to replace a document
// (the replacement gets a fresh shred version, invalidating every cached
// guard compiled against the old shape).
func (e *Engine) Shred(ctx context.Context, name string, r io.Reader, sp *obs.Span) (*ShredInfo, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return e.st.Shred(name, r, sp)
}

// Docs lists the stored document names, sorted. Like the other facade
// verbs it honors cancellation and, under a non-nil span, opens a
// "list-docs" child annotated with the pages read.
func (e *Engine) Docs(ctx context.Context, sp *obs.Span) ([]string, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	v := e.st.View()
	defer v.Close()
	dsp := sp.Child("list-docs")
	before := e.st.Stats()
	names, err := v.Documents()
	setPageIO(dsp, before, e.st.Stats())
	dsp.End()
	return names, err
}

// Shape loads a document's adorned shape on one store view. Under a
// non-nil span it opens a "load-shape" child annotated with the pages
// read.
func (e *Engine) Shape(ctx context.Context, name string, sp *obs.Span) (*Shape, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	v := e.st.View()
	defer v.Close()
	ssp := sp.Child("load-shape")
	before := e.st.Stats()
	sh, err := v.Shape(name)
	setPageIO(ssp, before, e.st.Stats())
	ssp.End()
	return sh, err
}

// setPageIO annotates a span with the store page reads and buffer-pool
// hits its phase incurred.
func setPageIO(sp *obs.Span, before, after kvstore.Stats) {
	if sp == nil {
		return
	}
	sp.Set("pages-read", after.BlocksRead-before.BlocksRead)
	sp.Set("page-hits", after.CacheHits-before.CacheHits)
}

// Drop removes a shredded document and every cached guard compiled
// against it (the version key never recurs, so eviction is implicit).
// Under a non-nil span it opens a "drop" child annotated with the pages
// the removal read and wrote.
func (e *Engine) Drop(ctx context.Context, name string, sp *obs.Span) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	dsp := sp.Child("drop")
	before := e.st.Stats()
	err := e.st.Drop(name)
	after := e.st.Stats()
	setPageIO(dsp, before, after)
	dsp.Set("pages-written", after.BlocksWritten-before.BlocksWritten)
	dsp.End()
	return err
}

// Update applies an edit script (the update language: insert / delete /
// replace over rooted type paths) to the stored document name, in place —
// only the dirty subtrees are re-shredded, inside one group-committed
// batch. The returned UpdateInfo carries the shape delta; a changed shape
// moves the document's shape hash, so cached guards compiled against the
// old shape stop matching, while shape-preserving edits keep them warm.
// Script syntax errors surface as *update.SyntaxError.
func (e *Engine) Update(ctx context.Context, name, script string, sp *obs.Span) (*UpdateInfo, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ops, err := update.Parse(script)
	if err != nil {
		return nil, err
	}
	info, err := e.st.Update(name, ops, sp)
	if err != nil {
		return nil, err
	}
	metricUpdates.Inc()
	metricUpdateNodesIns.Add(int64(info.NodesInserted))
	metricUpdateNodesDel.Add(int64(info.NodesDeleted))
	if info.Delta.Kind != update.Unchanged {
		metricUpdateShapeChanges.Inc()
	}
	return info, nil
}

// Check compiles guardSrc against name's adorned shape and enforces the
// guard's CAST mode — the whole "compile" phase, served from the
// compiled-guard cache when (guard, shred version) was seen before.
//
// Under a non-nil span a cache miss traces load-shape and the compile
// pipeline (parse-guard, typecheck, loss-check); a hit opens a "compile"
// child annotated cached=1.
func (e *Engine) Check(ctx context.Context, name, guardSrc string, sp *obs.Span) (*Checked, error) {
	v := e.st.View()
	defer v.Close()
	checked, _, _, err := e.compileIn(ctx, v, name, guardSrc, sp)
	return checked, err
}

// compileIn runs the compile phase against one store view, so the shred
// version it caches under, the shape hash, and the shape it compiles
// against all come from the same committed epoch (a re-shred or update
// landing mid-compile cannot pair the new version with the old shape, or
// vice versa).
// It also returns the cached streamability verdict, classified once per
// compilation and annotated on the span as "plan".
func (e *Engine) compileIn(ctx context.Context, v *store.View, name, guardSrc string, sp *obs.Span) (*Checked, plan.Decision, bool, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, plan.Decision{}, false, err
	}
	ver, ok, err := v.DocVersion(name)
	if err != nil {
		return nil, plan.Decision{}, false, err
	}
	if !ok {
		return nil, plan.Decision{}, false, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// The shape hash is the update-aware half of the cache key: one small
	// point read. Documents shredded before hashes were recorded fall back
	// to hashing the decoded shape (costs the shape load even on a hit —
	// still far cheaper than recompiling the guard).
	hash, hashOK, err := v.ShapeHash(name)
	if err != nil {
		return nil, plan.Decision{}, false, err
	}
	var sh *Shape
	if !hashOK {
		if sh, err = v.Shape(name); err != nil {
			return nil, plan.Decision{}, false, err
		}
		hash = store.HashShape(sh)
	}
	if checked, verdict := e.cache.get(ver, hash, guardSrc); checked != nil {
		csp := sp.Child("compile")
		csp.Set("cached", 1)
		csp.End()
		sp.SetStr("plan", verdict.String())
		return checked, verdict, true, nil
	}

	if sh == nil {
		ssp := sp.Child("load-shape")
		before := e.st.Stats()
		sh, err = v.Shape(name)
		setPageIO(ssp, before, e.st.Stats())
		ssp.End()
		if err != nil {
			return nil, plan.Decision{}, false, err
		}
	}
	checked, err := core.Check(guardSrc, sh, sp)
	if err != nil {
		return nil, plan.Decision{}, false, err
	}
	verdict := plan.Classify(checked.Plan.ComposedTarget())
	sp.SetStr("plan", verdict.String())
	e.cache.put(ver, hash, guardSrc, checked, verdict)
	return checked, verdict, false, nil
}

// RunOpts tunes a single Run call.
type RunOpts struct {
	// Span receives the pipeline trace; nil is untraced and free.
	Span *obs.Span
	// StreamTo receives the output XML, written as it is produced; Run
	// fails without one.
	StreamTo io.Writer
	// Indent pretty-prints the XML with two-space indentation, as
	// xmltree's WriteXML(w, true) would; otherwise it is compact.
	Indent bool
}

// RunResult is a completed transformation with its provenance.
type RunResult struct {
	*Checked
	// Streamed counts elements and attributes written to StreamTo.
	Streamed int
	// RenderTime covers the phase that wrote the XML.
	RenderTime time.Duration
	// CacheHit reports whether the compile phase was served from the
	// compiled-guard cache.
	CacheHit bool
	// PagesRead counts store pages read across the whole call.
	PagesRead int64
	// Plan is the streamability verdict cached with the compiled guard;
	// a streamable Plan means the one-pass executor produced the output
	// (constant memory, no join graphs).
	Plan plan.Decision
}

// errNoWriter reports a Run without a StreamTo writer.
var errNoWriter = errors.New("engine: Run needs a StreamTo writer")

// Run compiles guardSrc against the stored document name (cached) and
// writes the transformation's XML to opts.StreamTo — the full Figure 8
// pipeline over shredded data, streamed node by node in document order
// (Section VII). Streamable guards (by the cached verdict) take the
// one-pass scans, the rest the join-backed partners; the bytes are the
// same either way. Cancellation is honored between stages; the span in
// opts traces load-shape, compile, load-doc, and stream children, each
// annotated with the pages it read.
func (e *Engine) Run(ctx context.Context, name, guardSrc string, opts RunOpts) (*RunResult, error) {
	if opts.StreamTo == nil {
		return nil, errNoWriter
	}
	sp := opts.Span
	pagesBefore := e.st.Stats().BlocksRead

	// One view for the whole request: the compile phase, the document's
	// lazy node loads, and the emit walk all answer from a single
	// committed epoch, and never wait behind a concurrent shred.
	v := e.st.View()
	defer v.Close()

	checked, verdict, hit, err := e.compileIn(ctx, v, name, guardSrc, sp)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	dsp := sp.Child("load-doc")
	before := e.st.Stats()
	doc, err := v.Doc(name)
	setPageIO(dsp, before, e.st.Stats())
	dsp.End()
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// One span around the one emit call, whichever partners it pairs
	// with the encoder: both report the pages their type sequences cost.
	res := &RunResult{Checked: checked, CacheHit: hit, Plan: verdict}
	t := plan.Build(checked.Plan.ComposedTarget())
	esp := sp.Child("stream")
	before = e.st.Stats()
	start := time.Now()
	if verdict.Streamable {
		esp.Set("streamed", 1)
		res.Streamed, err = stream.ExecuteTree(stream.FromDoc(doc), t, opts.StreamTo, opts.Indent, esp)
	} else {
		metricStreamFallbacks.Inc()
		res.Streamed, err = render.StreamTree(doc, t, opts.StreamTo, opts.Indent, esp)
	}
	setPageIO(esp, before, e.st.Stats())
	esp.End()
	if err != nil {
		return nil, err
	}
	res.RenderTime = time.Since(start)
	core.ObserveTransform(res.RenderTime)
	if verdict.Streamable {
		sp.Set("streamed", 1)
		metricStreamRuns.Inc()
		metricStreamNodes.Add(int64(res.Streamed))
	}
	res.PagesRead = e.st.Stats().BlocksRead - pagesBefore
	return res, nil
}

// QueryOpts tunes a single Query call, mirroring RunOpts.
type QueryOpts struct {
	// Span receives the pipeline trace; nil is untraced and free.
	Span *obs.Span
}

// QueryResult is a guarded query's answer plus the same provenance a Run
// reports: the projection stats from the logical evaluator, the compile
// cache outcome, the page I/O, and the planner's verdict.
type QueryResult struct {
	*logical.Result
	// CacheHit reports whether the compile phase was served from the
	// compiled-guard cache.
	CacheHit bool
	// PagesRead counts store pages read across the whole call.
	PagesRead int64
	// Plan is the streamability verdict cached with the compiled guard.
	Plan plan.Decision
	// Exec names the execution path that produced the answer: "stream"
	// when the pruned projection was emitted from forward scans (its
	// execution tree is streamable), "store" when from closest joins.
	Exec string
}

// Query evaluates an XQuery query over guardSrc's output for the stored
// document name, rendering only the projection the query's paths can
// reach (the paper's architecture #3). The compile phase is served from
// the shape-aware guard cache; the span in opts traces compile,
// load-doc, and the prune/render/query pipeline.
func (e *Engine) Query(ctx context.Context, name, guardSrc, query string, opts QueryOpts) (*QueryResult, error) {
	sp := opts.Span
	pagesBefore := e.st.Stats().BlocksRead
	// One view per query: shape, document, and evaluation all read the
	// same committed epoch, without waiting behind concurrent shreds.
	v := e.st.View()
	defer v.Close()
	checked, verdict, hit, err := e.compileIn(ctx, v, name, guardSrc, sp)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	dsp := sp.Child("load-doc")
	before := e.st.Stats()
	doc, err := v.Doc(name)
	setPageIO(dsp, before, e.st.Stats())
	dsp.End()
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	res, err := logical.EvaluateChecked(query, checked, name, doc, sp)
	if err != nil {
		return nil, err
	}
	exec := "store"
	if res.Scanned {
		exec = "stream"
	}
	return &QueryResult{
		Result:    res,
		CacheHit:  hit,
		PagesRead: e.st.Stats().BlocksRead - pagesBefore,
		Plan:      verdict,
		Exec:      exec,
	}, nil
}

// ctxErr reports a cancelled or expired context; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
