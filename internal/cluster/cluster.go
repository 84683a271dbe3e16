// Package cluster shards the XMorph pipeline across N engines behind
// the same verb surface a single engine exposes (engine.Backend), so
// xmorphd serves a sharded deployment from unchanged handler code.
//
// Placement: a consistent-hash ring (virtual nodes, deterministic seed)
// maps each document name to one shard; every verb on a name routes to
// that shard, and Docs scatter/gathers across all of them. Each shard
// is one leader engine — the only writer — plus M read replicas: memory
// stores fed by the leader's committed WAL batches (kvstore replication
// feed), each with an applier goroutine draining the subscription.
//
// Reads prefer replicas round-robin, under a read-your-writes epoch
// floor: the cluster records the leader's commit LSN after each write
// it routed, and a replica serves a read only once its applied LSN has
// reached that floor — otherwise the read falls through to the leader
// (counted in cluster_fallthroughs_total). Replication is asynchronous,
// so the floor is what keeps the cluster's own write-then-read
// sequences coherent without waiting for replicas on the write path.
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

// Config sizes a cluster. The zero value is a single shard with no
// replicas — functionally a plain engine behind the routing layer.
type Config struct {
	// Shards is the number of shard leaders (default 1).
	Shards int
	// Replicas is the number of read replicas per shard (default 0).
	Replicas int
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
	// default). Replicas are memory-backed and unaffected.
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

	fallthroughs *obs.Counter
}

var _ engine.Backend = (*Cluster)(nil)

// shardState is one shard: the leader engine (sole writer), its read
// replicas, and the read-your-writes floor. mu excludes restart from
// in-flight verbs: verbs hold it shared for their whole call, restart
// exclusively.
type shardState struct {
	idx      int
	mu       sync.RWMutex
	leader   *engine.Engine
	replicas []*replica
	// floor is the leader commit LSN after the last write the cluster
	// routed here; a replica below it cannot serve reads.
	floor atomic.Uint64
	// rr round-robins replica picks.
	rr atomic.Uint64
	// recovered accumulates WAL recoveries across leader restarts (the
	// per-store counter resets when the store reopens).
	recovered atomic.Int64

	requests *obs.Counter
	lagGauge *obs.Gauge
}

// replica is one read follower: a memory store fed by the leader's
// commit feed, wrapped in its own engine (own guard cache), with an
// applier goroutine draining the subscription.
type replica struct {
	eng  *engine.Engine
	sub  *kvstore.CommitSub
	done chan struct{}
	// applyErr records a failed batch apply; the replica stops applying
	// and stops serving (its applied LSN freezes below future floors).
	applyErr atomic.Value
}

// newReplica subscribes to leader's commit feed, applies the bootstrap
// synchronously (the replica is query-consistent from birth), and
// starts the applier.
func newReplica(leader *store.Store) (*replica, error) {
	sub, err := leader.SubscribeCommits()
	if err != nil {
		return nil, err
	}
	st := store.OpenMemory()
	boot, ok := sub.Next()
	if !ok {
		sub.Close()
		return nil, errors.New("cluster: replication feed closed before bootstrap")
	}
	if err := st.ApplyCommitBatch(boot); err != nil {
		sub.Close()
		return nil, fmt.Errorf("cluster: replica bootstrap: %w", err)
	}
	r := &replica{eng: engine.New(st), sub: sub, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for {
			b, ok := sub.Next()
			if !ok {
				return
			}
			if err := st.ApplyCommitBatch(b); err != nil {
				r.applyErr.Store(err)
				return
			}
		}
	}()
	return r, nil
}

// close detaches the replica: the subscription closes, the applier
// drains out, and the engine (with its store) shuts down.
func (r *replica) close() error {
	r.sub.Close()
	<-r.done
	return r.eng.Close()
}

// New builds a cluster per cfg: the ring, the shard leaders, and each
// leader's replicas (bootstrapped synchronously).
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	if cfg.VNodes < 1 {
		cfg.VNodes = 64
	}
	c := &Cluster{
		cfg:          cfg,
		ring:         NewRing(cfg.Shards, cfg.VNodes, cfg.Seed),
		fallthroughs: obs.Default.Counter("cluster_fallthroughs_total"),
	}
	obs.Default.Gauge("cluster_shards").Set(float64(cfg.Shards))
	obs.Default.Gauge("cluster_replicas_per_shard").Set(float64(cfg.Replicas))
	for i := 0; i < cfg.Shards; i++ {
		st, err := c.openLeader(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		s := &shardState{
			idx:      i,
			leader:   engine.New(st),
			requests: obs.Default.Counter(fmt.Sprintf("cluster_shard_%d_requests_total", i)),
			lagGauge: obs.Default.Gauge(fmt.Sprintf("cluster_shard_%d_replica_lag", i)),
		}
		s.floor.Store(st.CommitLSN())
		for j := 0; j < cfg.Replicas; j++ {
			r, err := newReplica(st)
			if err != nil {
				s.leader.Close()
				c.Close()
				return nil, err
			}
			s.replicas = append(s.replicas, r)
		}
		c.shards = append(c.shards, s)
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

// reader picks the engine a read on this shard runs against: a replica
// whose applied LSN has reached the read-your-writes floor (round-robin
// across eligible ones), else the leader. Callers hold s.mu shared.
func (s *shardState) reader(c *Cluster) *engine.Engine {
	if len(s.replicas) == 0 {
		return s.leader
	}
	floor := s.floor.Load()
	n := len(s.replicas)
	start := int(s.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		r := s.replicas[(start+i)%n]
		if r.applyErr.Load() == nil && r.eng.Store().AppliedLSN() >= floor {
			return r.eng
		}
	}
	c.fallthroughs.Inc()
	return s.leader
}

// advanceFloor records the leader's commit LSN after a routed write:
// the shard's new read-your-writes floor.
func (s *shardState) advanceFloor() {
	lsn := s.leader.Store().CommitLSN()
	for {
		cur := s.floor.Load()
		if lsn <= cur || s.floor.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Shred routes the document to its shard's leader and advances the
// read-your-writes floor past the shred's commit.
func (c *Cluster) Shred(ctx context.Context, name string, r io.Reader, sp *obs.Span) (*engine.ShredInfo, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	info, err := s.leader.Shred(ctx, name, r, sp)
	if err != nil {
		return nil, err
	}
	s.advanceFloor()
	return info, nil
}

// Drop routes to the owning shard's leader and advances the floor.
func (c *Cluster) Drop(ctx context.Context, name string, sp *obs.Span) error {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	if err := s.leader.Drop(ctx, name, sp); err != nil {
		return err
	}
	s.advanceFloor()
	return nil
}

// Update routes the edit script to the owning shard's leader — the only
// writer — and advances the read-your-writes floor past the update's
// commit, so a follow-up read through a replica waits for the patched
// subtrees to replicate.
func (c *Cluster) Update(ctx context.Context, name, script string, sp *obs.Span) (*engine.UpdateInfo, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	info, err := s.leader.Update(ctx, name, script, sp)
	if err != nil {
		return nil, err
	}
	s.advanceFloor()
	return info, nil
}

// Docs scatter/gathers the listing across every shard (each through its
// reader pick) and merges: names are disjoint across shards, so the
// merge is a sorted union.
func (c *Cluster) Docs(ctx context.Context, sp *obs.Span) ([]string, error) {
	var all []string
	for _, s := range c.shards {
		s.mu.RLock()
		s.requests.Inc()
		names, err := s.reader(c).Docs(ctx, sp)
		s.mu.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", s.idx, err)
		}
		all = append(all, names...)
	}
	sort.Strings(all)
	return all, nil
}

// Shape routes the read to the owning shard's reader pick.
func (c *Cluster) Shape(ctx context.Context, name string, sp *obs.Span) (*engine.Shape, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.reader(c).Shape(ctx, name, sp)
}

// Run routes the transformation to the owning shard's reader pick.
func (c *Cluster) Run(ctx context.Context, name, guardSrc string, opts engine.RunOpts) (*engine.RunResult, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.reader(c).Run(ctx, name, guardSrc, opts)
}

// Query routes the guarded query to the owning shard's reader pick.
func (c *Cluster) Query(ctx context.Context, name, guardSrc, query string, opts engine.QueryOpts) (*engine.QueryResult, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.requests.Inc()
	return s.reader(c).Query(ctx, name, guardSrc, query, opts)
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

// Stats aggregates storage counters across shard leaders (sums;
// epoch/LSN fields take the max) and refreshes the cluster gauges —
// replica lag per shard and overall — as a side effect, so a /metrics
// scrape sees current values.
func (c *Cluster) Stats() kvstore.Stats {
	var agg kvstore.Stats
	maxLag := int64(0)
	for _, s := range c.shards {
		s.mu.RLock()
		st := s.leader.Stats()
		lsn := s.leader.Store().CommitLSN()
		lag := int64(0)
		for _, r := range s.replicas {
			if l := int64(lsn) - int64(r.eng.Store().AppliedLSN()); l > lag {
				lag = l
			}
		}
		recovered := s.recovered.Load()
		s.mu.RUnlock()
		s.lagGauge.Set(float64(lag))
		if lag > maxLag {
			maxLag = lag
		}
		agg.BlocksRead += st.BlocksRead
		agg.BlocksWritten += st.BlocksWritten
		agg.IONanos += st.IONanos
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.Evictions += st.Evictions
		agg.ReadAheads += st.ReadAheads
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
		if st.CommitLSN > agg.CommitLSN {
			agg.CommitLSN = st.CommitLSN
		}
		if st.AppliedLSN > agg.AppliedLSN {
			agg.AppliedLSN = st.AppliedLSN
		}
	}
	obs.Default.Gauge("cluster_replica_lag").Set(float64(maxLag))
	return agg
}

// ReplicaLag returns shard i's worst replica lag in commits (0 when
// every replica is caught up or the shard has none).
func (c *Cluster) ReplicaLag(i int) uint64 {
	s := c.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	lsn := s.leader.Store().CommitLSN()
	var lag uint64
	for _, r := range s.replicas {
		applied := r.eng.Store().AppliedLSN()
		if applied < lsn && lsn-applied > lag {
			lag = lsn - applied
		}
	}
	return lag
}

// RestartShard recovers shard i after a leader crash: the old leader
// and its replicas are torn down, the leader store reopens (replaying
// its WAL — a file-backed leader loses nothing that committed), and fresh
// replicas bootstrap from the recovered state. In-flight verbs on the
// shard finish first; verbs arriving during the restart wait for it.
func (c *Cluster) RestartShard(i int) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", i)
	}
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, r := range s.replicas {
		errs = append(errs, r.close())
	}
	s.replicas = nil
	// The crashed leader's close may surface the injected fault; the
	// reopen below is what decides recovery.
	_ = s.leader.Close()
	st, err := c.openLeader(i)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	s.recovered.Add(st.Stats().Recoveries)
	s.leader = engine.New(st)
	s.floor.Store(st.CommitLSN())
	for j := 0; j < c.cfg.Replicas; j++ {
		r, err := newReplica(st)
		if err != nil {
			return errors.Join(append(errs, err)...)
		}
		s.replicas = append(s.replicas, r)
	}
	return errors.Join(errs...)
}

// Recovered reports WAL recoveries accumulated across shard restarts.
func (c *Cluster) Recovered() int64 {
	var n int64
	for _, s := range c.shards {
		n += s.recovered.Load()
	}
	return n
}

// Close shuts the whole cluster down: replicas first (their appliers
// drain out), then the shard leaders.
func (c *Cluster) Close() error {
	var errs []error
	for _, s := range c.shards {
		s.mu.Lock()
		for _, r := range s.replicas {
			errs = append(errs, r.close())
		}
		s.replicas = nil
		if s.leader != nil {
			errs = append(errs, s.leader.Close())
		}
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}
