package engine

import (
	"context"
	"io"

	"xmorph/internal/kvstore"
	"xmorph/internal/obs"
	"xmorph/internal/store"
)

// Backend is the verb surface the HTTP server (and any other front end)
// drives: the full pipeline vocabulary with context and tracing threaded
// through. A single Engine implements it directly; internal/cluster's
// Cluster implements the same surface over N sharded engines, so xmorphd
// serves either from identical handler code.
type Backend interface {
	// Shred streams an XML document into the backend under name.
	Shred(ctx context.Context, name string, r io.Reader, sp *obs.Span) (*ShredInfo, error)
	// Docs lists the stored document names, sorted.
	Docs(ctx context.Context, sp *obs.Span) ([]string, error)
	// Shape loads a document's adorned shape.
	Shape(ctx context.Context, name string, sp *obs.Span) (*Shape, error)
	// Drop removes a shredded document.
	Drop(ctx context.Context, name string, sp *obs.Span) error
	// Update applies an edit script to a stored document in place,
	// re-shredding only the dirty subtrees.
	Update(ctx context.Context, name, script string, sp *obs.Span) (*UpdateInfo, error)
	// Check compiles and loss-checks a guard against a document's shape.
	Check(ctx context.Context, name, guardSrc string, sp *obs.Span) (*Checked, error)
	// Run renders a guarded transformation (optionally streaming).
	Run(ctx context.Context, name, guardSrc string, opts RunOpts) (*RunResult, error)
	// Query evaluates a guarded XQuery query over the transformation.
	Query(ctx context.Context, name, guardSrc, query string, opts QueryOpts) (*QueryResult, error)
	// Stats reports storage counters (aggregated across shards for a
	// cluster). Refreshing backend-specific gauges may piggyback on it.
	Stats() kvstore.Stats
	// Sync flushes pending commits.
	Sync() error
	// Close releases the backend.
	Close() error
}

// Engine satisfies Backend.
var _ Backend = (*Engine)(nil)

// New wraps an already-open store in an Engine. The cluster layer uses
// it to front stores it manages itself (shard leaders it can crash and
// reopen, replica stores fed by replication); store-level options in
// opts are ignored — the store is configured.
func New(st *store.Store, opts ...Option) *Engine {
	cfg := newConfig(opts)
	return &Engine{st: st, cache: newGuardCache(cfg.cacheSize)}
}

// Store exposes the engine's underlying store — the cluster layer needs
// it for replication feeds and epoch floors.
func (e *Engine) Store() *store.Store { return e.st }
