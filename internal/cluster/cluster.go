// Package cluster shards the XMorph pipeline across N engines behind
// the same verb surface a single engine exposes (engine.Backend), so
// xmorphd serves a sharded deployment from unchanged handler code.
//
// Placement: a consistent-hash ring (virtual nodes, deterministic seed)
// maps each document name to one shard; every verb on a name routes to
// that shard, and Docs scatter/gathers across all of them. Each shard
// is one leader engine over its own store, which serves every verb on
// the shard's documents.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"xmorph/internal/engine"
	"xmorph/internal/kvstore"
	"xmorph/internal/obs"
	"xmorph/internal/store"
)

// Config sizes a cluster. The zero value is a single shard —
// functionally a plain engine behind the routing layer.
type Config struct {
	// Shards is the number of shard leaders (default 1).
	Shards int
	// Dir, when set, makes shard leaders file-backed at
	// Dir/shard-<i>.db; empty keeps them in memory (tests).
	Dir string
	// Durability is ignored: every file-backed leader commits through
	// the write-ahead log.
	//
	// Deprecated: kept only until the benchmark module stops setting
	// it.
	Durability bool
	// VNodes is the virtual-node count per shard on the ring (default 64).
	VNodes int
	// Seed fixes the ring's hash placement (default 0: a fixed layout).
	Seed uint64
	// CachePages sizes each shard leader's buffer pool (0: kvstore
	// default).
	CachePages int
	// OpenLeader overrides shard-leader store construction — the chaos
	// harness injects fault filesystems here. Called at New and again by
	// RestartShard; when nil the cluster opens Dir-based (or memory)
	// stores itself.
	OpenLeader func(shard int) (*store.Store, error)
}

// Cluster is a sharded Backend. It is safe for concurrent use; shard
// restart (chaos recovery) excludes in-flight verbs on that shard only.
type Cluster struct {
	cfg    Config
	ring   *Ring
	shards []*shardState
}

var _ engine.Backend = (*Cluster)(nil)

// shardState is one shard: its leader engine. mu excludes restart from
// in-flight verbs: verbs hold it shared for their whole call, restart
// exclusively.
type shardState struct {
	idx    int
	mu     sync.RWMutex
	leader *engine.Engine
	// recovered accumulates WAL recoveries across leader restarts (the
	// per-store counter resets when the store reopens).
	recovered atomic.Int64

	requests *obs.Counter
}

// New builds a cluster per cfg: the ring and the shard leaders.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.VNodes < 1 {
		cfg.VNodes = 64
	}
	c := &Cluster{cfg: cfg, ring: NewRing(cfg.Shards, cfg.VNodes, cfg.Seed)}
	obs.Default.Gauge("cluster_shards").Set(float64(cfg.Shards))
	for i := 0; i < cfg.Shards; i++ {
		st, err := c.openLeader(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.shards = append(c.shards, &shardState{
			idx:      i,
			leader:   engine.New(st),
			requests: obs.Default.Counter(fmt.Sprintf("cluster_shard_%d_requests_total", i)),
		})
	}
	return c, nil
}

// openLeader builds shard i's leader store: the OpenLeader hook, a
// Dir-based file store, or a memory store, in that order of preference.
func (c *Cluster) openLeader(i int) (*store.Store, error) {
	if c.cfg.OpenLeader != nil {
		return c.cfg.OpenLeader(i)
	}
	var opts []store.Option
	if c.cfg.CachePages > 0 {
		opts = append(opts, store.WithCachePages(c.cfg.CachePages))
	}
	if c.cfg.Dir == "" {
		return store.OpenMemory(opts...), nil
	}
	return store.Open(filepath.Join(c.cfg.Dir, fmt.Sprintf("shard-%d.db", i)), opts...)
}

// shardFor routes a document name through the ring.
func (c *Cluster) shardFor(name string) *shardState {
	return c.shards[c.ring.Lookup(name)]
}

// Shards reports the shard count (the bench harness scales over it).
func (c *Cluster) Shards() int { return len(c.shards) }

// Shred routes the document to its shard's leader.
func (c *Cluster) Shred(ctx context.Context, name string, r io.Reader, sp *obs.Span) (*engine.ShredInfo, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.leader.Shred(ctx, name, r, sp)
}

// Drop routes to the owning shard's leader.
func (c *Cluster) Drop(ctx context.Context, name string, sp *obs.Span) error {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.leader.Drop(ctx, name, sp)
}

// Update routes the edit script to the owning shard's leader.
func (c *Cluster) Update(ctx context.Context, name, script string, sp *obs.Span) (*engine.UpdateInfo, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.leader.Update(ctx, name, script, sp)
}

// Docs scatter/gathers the listing across every shard and merges:
// names are disjoint across shards, so the merge is a sorted union.
func (c *Cluster) Docs(ctx context.Context, sp *obs.Span) ([]string, error) {
	var all []string
	for _, s := range c.shards {
		s.mu.RLock()
		s.requests.Inc()
		names, err := s.leader.Docs(ctx, sp)
		s.mu.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", s.idx, err)
		}
		all = append(all, names...)
	}
	sort.Strings(all)
	return all, nil
}

// Shape routes the read to the owning shard's leader.
func (c *Cluster) Shape(ctx context.Context, name string, sp *obs.Span) (*engine.Shape, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.leader.Shape(ctx, name, sp)
}

// Run routes the transformation to the owning shard's leader.
func (c *Cluster) Run(ctx context.Context, name, guardSrc string, opts engine.RunOpts) (*engine.RunResult, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.leader.Run(ctx, name, guardSrc, opts)
}

// Query routes the guarded query to the owning shard's leader.
func (c *Cluster) Query(ctx context.Context, name, guardSrc, query string, opts engine.QueryOpts) (*engine.QueryResult, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.leader.Query(ctx, name, guardSrc, query, opts)
}

// Sync flushes every shard leader.
func (c *Cluster) Sync() error {
	var errs []error
	for _, s := range c.shards {
		s.mu.RLock()
		errs = append(errs, s.leader.Sync())
		s.mu.RUnlock()
	}
	return errors.Join(errs...)
}

// Stats aggregates storage counters across shard leaders (sums; the
// epoch takes the max).
func (c *Cluster) Stats() kvstore.Stats {
	var agg kvstore.Stats
	for _, s := range c.shards {
		s.mu.RLock()
		st := s.leader.Stats()
		recovered := s.recovered.Load()
		s.mu.RUnlock()
		agg.BlocksRead += st.BlocksRead
		agg.BlocksWritten += st.BlocksWritten
		agg.IONanos += st.IONanos
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.Evictions += st.Evictions
		agg.WALBytes += st.WALBytes
		agg.WALCommits += st.WALCommits
		agg.Recoveries += st.Recoveries + recovered
		agg.Gets += st.Gets
		agg.Puts += st.Puts
		agg.Deletes += st.Deletes
		agg.Seeks += st.Seeks
		agg.FastPathHits += st.FastPathHits
		agg.SnapshotsOpen += st.SnapshotsOpen
		agg.PagesRetained += st.PagesRetained
		agg.PagesRetired += st.PagesRetired
		agg.SyncCalls += st.SyncCalls
		agg.GroupCommits += st.GroupCommits
		agg.WALFsyncs += st.WALFsyncs
		if st.Epoch > agg.Epoch {
			agg.Epoch = st.Epoch
		}
	}
	return agg
}

// RestartShard recovers shard i after a leader crash: the old leader is
// closed and its store reopens, replaying its WAL — a file-backed leader
// loses nothing that committed. In-flight verbs on the shard finish
// first; verbs arriving during the restart wait for it.
func (c *Cluster) RestartShard(i int) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", i)
	}
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	// The crashed leader's close may surface the injected fault; the
	// reopen below is what decides recovery.
	_ = s.leader.Close()
	st, err := c.openLeader(i)
	if err != nil {
		return err
	}
	s.recovered.Add(st.Stats().Recoveries)
	s.leader = engine.New(st)
	return nil
}

// Recovered reports WAL recoveries accumulated across shard restarts.
func (c *Cluster) Recovered() int64 {
	var n int64
	for _, s := range c.shards {
		n += s.recovered.Load()
	}
	return n
}

// Close shuts every shard leader down.
func (c *Cluster) Close() error {
	var errs []error
	for _, s := range c.shards {
		s.mu.Lock()
		if s.leader != nil {
			errs = append(errs, s.leader.Close())
		}
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}
