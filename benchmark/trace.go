package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"xmorph/internal/closest"
	"xmorph/internal/cluster"
	"xmorph/internal/core"
	"xmorph/internal/engine"
	"xmorph/internal/guard"
	"xmorph/internal/kvstore"
	"xmorph/internal/logical"
	"xmorph/internal/loss"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/stream"
	"xmorph/internal/update"
	"xmorph/internal/xmltree"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark wraps the layer's public function. Spans of one operation
// share Op; Parent is -1 at the operation's root.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Op      int              `json:"op"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; the file is written when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

func (t *tracer) set(id int, key string, v int64) {
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
}

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].EndNs - t.spans[id].StartNs)
}

// stageSummary is one row of the trace file's summary: a stage's self
// time over the exploded pass.
type stageSummary struct {
	Stage    string  `json:"stage"`
	Count    int     `json:"count"`
	SelfUs   float64 `json:"self_us_total"`
	SharePct float64 `json:"share_pct"`
}

// summarize totals self time (duration minus children) per stage name.
func (t *tracer) summarize() []stageSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	by := map[string]*stageSummary{}
	var total float64
	for i, s := range t.spans {
		self := float64(s.EndNs-s.StartNs-child[i]) / 1e3
		row := by[s.Name]
		if row == nil {
			row = &stageSummary{Stage: s.Name}
			by[s.Name] = row
		}
		row.Count++
		row.SelfUs += self
		total += self
	}
	out := make([]stageSummary, 0, len(by))
	for _, row := range by {
		if total > 0 {
			row.SharePct = row.SelfUs / total * 100
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUs > out[j].SelfUs })
	return out
}

// heapAllocs is the process's cumulative count of heap objects allocated.
// It is read through runtime/metrics, which does not stop the world:
// runtime.ReadMemStats around every traced operation flushed the
// allocator's caches and made the exploded pass up to a fifth slower than
// the facade it is compared with.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// countWriter counts bytes and notes when the first one arrived.
type countWriter struct {
	n     int64
	begin time.Time
	first time.Duration
}

func (w *countWriter) Write(p []byte) (int, error) {
	if w.n == 0 && len(p) > 0 {
		w.first = time.Since(w.begin)
	}
	w.n += int64(len(p))
	return len(p), nil
}

// compiled is the exploded pass's own guard cache entry, keyed like the
// engine's (shred version, shape hash, guard text).
type compiled struct {
	checked *core.Checked
	target  *semantics.Target
	verdict plan.Decision
}

type compiledKey struct {
	ver   uint32
	shape uint64
	guard string
}

// tracedSchedule is the fixed operation list of the traced pass: the
// first queries of client 0's seeded deck, the workload's shreds and its
// patch cycle. Every route replays this same list, so each sees the same
// history of preceding operations and the same buffer-pool state. Mixed
// interleaves writes among the queries, as its window does (split 0).
// The other workloads keep queries and writes apart: the list is queries
// then writes, split says where, and every route finishes the queries
// before any route writes, so all of them query the pristine document.
func (f *fixture) tracedSchedule(route string, freshStart int) (sched []op, split int) {
	spec := f.spec
	d := newDeck(f.in, f.seed, 0, 1)
	d.fresh = freshStart
	rng := rand.New(rand.NewSource(f.seed*17 + 3))
	var queries, writes []op
	for i := 0; i < spec.tracedQueries; i++ {
		queries = append(queries, d.draw())
	}
	interleave := spec.main == phaseMixed
	shredEvery := max(spec.tracedPatches/max(spec.tracedShreds, 1), 1)
	prev, shreds := "", 0
	addShred := func() {
		doc := f.in.pool[shreds%len(f.in.pool)]
		name := fmt.Sprintf("tr-%s-%d", route, shreds)
		shreds++
		writes = append(writes, shredOp(name, doc))
		if interleave {
			if prev != "" {
				writes = append(writes, dropOp(prev))
			}
			prev = name
		}
	}
	if !interleave {
		for shreds < spec.tracedShreds {
			addShred()
		}
	}
	for i := 0; i < spec.tracedPatches; i++ {
		writes = append(writes, patchOp(patchCycle[i%len(patchCycle)], "promo"+route, f.in.cats, rng))
		if interleave && (i+1)%shredEvery == 0 && shreds < spec.tracedShreds {
			addShred()
		}
	}
	if !interleave {
		return append(queries, writes...), len(queries)
	}
	every := max(len(queries)/max(len(writes), 1), 1)
	wi := 0
	for i, q := range queries {
		sched = append(sched, q)
		if (i+1)%every == 0 && wi < len(writes) {
			sched = append(sched, writes[wi])
			wi++
		}
	}
	return append(sched, writes[wi:]...), 0
}

// opTiming is what one route measured for one scheduled operation.
type opTiming struct {
	dur   time.Duration
	bytes int64
	err   error
}

// exploded holds what only the exploded pass can see.
type exploded struct {
	tr     *tracer
	cache  map[compiledKey]*compiled
	guards map[string]bool // distinct guard texts compiled → streamable
	// per-op figures, parallel to the schedule
	attributed []time.Duration // Σ direct child spans
	pagesRead  []int64
	evictions  []int64
	readAheads []int64
	allocs     []uint64
	// stream executor
	streamNodes, streamBytes int64
	streamTime               time.Duration
	firstWrite               []float64
	// store writes
	shredNodes, shredPages   int64
	shredXML, shredWrote     int64
	shredAllocs              uint64
	shredTime                time.Duration
	shredDocs                int
	updatePages, updateNodes []int64
	shapeChanged             int
	keptTypes, totalTypes    int
}

func (e *exploded) spansNamed(name string) []float64 {
	var out []float64
	for _, s := range e.tr.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// runExploded executes the schedule by calling each layer's public
// functions in the order the engine facade does, a span around each.
func (f *fixture) runExploded(e *exploded, sched []op, out []opTiming, lo, hi int) {
	st := f.eng.Store()
	tr := e.tr
	for i := lo; i < hi; i++ {
		o := sched[i]
		a0 := heapAllocs()
		s0 := st.Stats()
		root := tr.begin("op."+o.class, -1, i)
		var err error
		var nbytes int64
		switch {
		case o.kind == phaseQuery:
			nbytes, err = f.explodeQuery(e, o, root, i)
		case o.kind == phaseShred:
			id := tr.begin("store.shred", root, i)
			var info *engine.ShredInfo
			info, err = st.Shred(o.doc, bytes.NewReader(o.xml), nil)
			e.shredTime += tr.end(id)
			if err == nil {
				f.acked(info.Name, len(o.xml))
				e.shredNodes += int64(info.Nodes)
				e.shredDocs++
			}
		case o.class == "patch":
			id := tr.begin("update.parse", root, i)
			var ops []update.Op
			ops, err = update.Parse(o.script)
			tr.end(id)
			if err == nil {
				id = tr.begin("store.update", root, i)
				var info *engine.UpdateInfo
				info, err = st.Update("main", ops, nil)
				tr.end(id)
				if err == nil {
					e.updatePages = append(e.updatePages, info.PagesWritten)
					e.updateNodes = append(e.updateNodes, int64(info.NodesInserted+info.NodesDeleted))
					if info.Delta.Kind != update.Unchanged {
						e.shapeChanged++
					}
				}
			}
		default: // drop
			id := tr.begin("store.drop", root, i)
			err = st.Drop(o.doc)
			tr.end(id)
			if err == nil {
				f.dropped(o.doc)
			}
		}
		total := tr.end(root)
		s1 := st.Stats()
		allocs := heapAllocs() - a0
		var attributed time.Duration
		for j := root + 1; j < len(tr.spans); j++ {
			if tr.spans[j].Parent == root {
				attributed += tr.dur(j)
			}
		}
		tr.set(root, "pages-read", s1.BlocksRead-s0.BlocksRead)
		tr.set(root, "pages-written", s1.BlocksWritten-s0.BlocksWritten)
		tr.set(root, "pool-hits", s1.CacheHits-s0.CacheHits)
		tr.set(root, "pool-misses", s1.CacheMisses-s0.CacheMisses)
		tr.set(root, "evictions", s1.Evictions-s0.Evictions)
		tr.set(root, "read-aheads", s1.ReadAheads-s0.ReadAheads)
		tr.set(root, "wal-bytes", s1.WALBytes-s0.WALBytes)
		tr.set(root, "allocs", int64(allocs))
		e.attributed[i] = attributed
		e.pagesRead[i] = s1.BlocksRead - s0.BlocksRead
		e.evictions[i] = s1.Evictions - s0.Evictions
		e.readAheads[i] = s1.ReadAheads - s0.ReadAheads
		e.allocs[i] = allocs
		if o.kind == phaseShred && err == nil {
			e.shredPages += s1.BlocksWritten - s0.BlocksWritten
			e.shredXML += int64(len(o.xml))
			e.shredWrote += (s1.BlocksWritten-s0.BlocksWritten)*4096 + s1.WALBytes - s0.WALBytes
			e.shredAllocs += allocs
		}
		out[i] = opTiming{dur: total, bytes: nbytes, err: err}
	}
}

func newExploded(n int) *exploded {
	return &exploded{
		tr: &tracer{t0: time.Now()}, cache: map[compiledKey]*compiled{}, guards: map[string]bool{},
		attributed: make([]time.Duration, n), pagesRead: make([]int64, n), evictions: make([]int64, n),
		readAheads: make([]int64, n), allocs: make([]uint64, n),
	}
}

// explodeQuery is Engine.Run (or Engine.Query) taken apart: one view,
// the compile phase on a miss of this pass's own guard cache, the lazy
// document, then the executor the planner's verdict selects.
func (f *fixture) explodeQuery(e *exploded, o op, root, i int) (int64, error) {
	tr, st := e.tr, f.eng.Store()
	id := tr.begin("store.view", root, i)
	v := st.View()
	defer v.Close()
	ver, ok, err := v.DocVersion("main")
	var hash uint64
	if err == nil && ok {
		hash, _, err = v.ShapeHash("main")
	}
	tr.end(id)
	if err != nil || !ok {
		return 0, fmt.Errorf("exploded %s: main document: found=%v err=%v", o.class, ok, err)
	}

	key := compiledKey{ver, hash, o.guard}
	c := e.cache[key]
	if c == nil {
		cid := tr.begin("engine.compile", root, i)
		id = tr.begin("store.load_shape", cid, i)
		sh, err := v.Shape("main")
		tr.end(id)
		if err != nil {
			return 0, err
		}
		id = tr.begin("guard.parse", cid, i)
		prog, err := guard.Parse(o.guard)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		id = tr.begin("semantics.compile", cid, i)
		pl, err := semantics.Compile(prog, sh)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		id = tr.begin("loss.analyze", cid, i)
		rep := loss.Analyze(pl)
		err = loss.Enforce(prog.Cast, rep)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		id = tr.begin("plan.classify", cid, i)
		tgt := pl.ComposedTarget()
		verdict := plan.Classify(tgt)
		tr.end(id)
		tr.end(cid)
		c = &compiled{checked: &core.Checked{Program: prog, Plan: pl, Loss: rep}, target: tgt, verdict: verdict}
		e.cache[key] = c
		e.guards[o.guard] = verdict.Streamable
	}

	id = tr.begin("store.load_doc", root, i)
	doc, err := v.Doc("main")
	tr.end(id)
	if err != nil {
		return 0, err
	}

	w := &countWriter{begin: time.Now()}
	switch {
	case o.query != "":
		id = tr.begin("logical.evaluate", root, i)
		res, err := logical.EvaluateChecked(o.query, c.checked, "main", doc, nil)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		e.keptTypes += res.KeptTypes
		e.totalTypes += res.TotalTypes
		return int64(len(res.Answer)), nil
	case c.verdict.Streamable:
		id = tr.begin("stream.execute", root, i)
		n, err := stream.Execute(stream.FromDoc(doc), c.target, w, nil)
		e.streamTime += tr.end(id)
		if err != nil {
			return 0, err
		}
		tr.set(id, "nodes-out", int64(n))
		tr.set(id, "bytes-out", w.n)
		e.streamNodes += int64(n)
		e.streamBytes += w.n
		e.firstWrite = append(e.firstWrite, us(w.first))
	default:
		id = tr.begin("render.stream", root, i)
		n, err := render.Stream(doc, c.target, w, nil)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		tr.set(id, "nodes-out", int64(n))
		tr.set(id, "bytes-out", w.n)
	}
	return w.n, nil
}

// runFacade executes the schedule through the engine facade, untraced.
func (f *fixture) runFacade(be engine.Backend, sched []op, out []opTiming, lo, hi int, queriesOnly bool) {
	ctx := context.Background()
	for i := lo; i < hi; i++ {
		o := sched[i]
		if queriesOnly && o.kind != phaseQuery {
			continue
		}
		var err error
		var n int64
		start := time.Now()
		switch {
		case o.query != "":
			var res *engine.QueryResult
			if res, err = be.Query(ctx, "main", o.guard, o.query, engine.QueryOpts{}); err == nil {
				n = int64(len(res.Answer))
			}
		case o.kind == phaseQuery:
			w := &countWriter{begin: start}
			_, err = be.Run(ctx, "main", o.guard, engine.RunOpts{StreamTo: w})
			n = w.n
		case o.kind == phaseShred:
			if _, err = be.Shred(ctx, o.doc, bytes.NewReader(o.xml), nil); err == nil {
				f.acked(o.doc, len(o.xml))
			}
		case o.class == "patch":
			_, err = be.Update(ctx, "main", o.script, nil)
		default:
			if err = be.Drop(ctx, o.doc, nil); err == nil {
				f.dropped(o.doc)
			}
		}
		out[i] = opTiming{dur: time.Since(start), bytes: n, err: err}
	}
}

// runHTTP executes the schedule through the server, checksums on.
func (f *fixture) runHTTP(sched []op, out []opTiming, lo, hi int) []sample {
	s := newSender(f)
	var samples []sample
	for i := lo; i < hi; i++ {
		o := sched[i]
		sm := s.do(o)
		samples = append(samples, sm)
		if sm.err == nil {
			if o.kind == phaseShred {
				f.acked(o.doc, len(o.xml))
			} else if o.class == "drop" {
				f.dropped(o.doc)
			}
		}
		out[i] = opTiming{dur: sm.latency, bytes: int64(sm.bytes), err: sm.err}
	}
	return samples
}

// sampler polls the store's MVCC gauges while a window runs.
type sampler struct {
	stop               chan struct{}
	done               sync.WaitGroup
	retained, snapshot int64
}

func startSampler(eng *engine.Engine) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				st := eng.Stats()
				s.retained = max(s.retained, st.PagesRetained)
				s.snapshot = max(s.snapshot, st.SnapshotsOpen)
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// runTraced is a --trace 1 run: a set-up, a warm-up and a half-length
// untraced concurrent window of the main traffic (for the tail, GC and
// cache figures that need requests side by side; raw wall clock, no
// yardstick), then on a second set-up the traced pass — the
// fixed schedule replayed exploded, through the facade, through HTTP and
// through a 2-shard cluster — and the single-layer measurements.
func runTraced(spec *workloadSpec, sc scale, seed int64, seconds float64, workdir, outDir string) (*runResult, error) {
	begin := time.Now()
	dir := filepath.Join(workdir, spec.name+"-traced")
	defer os.RemoveAll(dir)
	f, err := setUp(spec, sc, seed, filepath.Join(dir, "window"), true)
	if err != nil {
		return nil, err
	}
	// f is replaced below; close whichever fixture is current.
	defer func() { f.close() }()
	res := &runResult{Workload: spec.name, Seed: seed, Traced: true, Correct: true, Inputs: f.inputInfo()}
	m := map[string]metric{}
	put := reporter(perLayer, m)

	// Untraced window.
	main := spec.main
	f.runConcurrent(main, warmUp(seconds))
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	hits0, misses0 := f.eng.CacheStats()
	k0 := f.eng.Stats()
	smp := startSampler(f.eng)
	window := f.runConcurrent(main, seconds2dur(seconds/2))
	smp.finish()
	k1 := f.eng.Stats()
	hits1, misses1 := f.eng.CacheStats()
	runtime.ReadMemStats(&g1)
	res.tally([]phaseResult{window})
	w := condense([]phaseResult{window})
	windowOps := len(window.samples)

	put("engine.guard_cache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), int(hits1-hits0+misses1-misses0))
	put("engine.refused_429", float64(w.refused), windowOps)
	put("engine.query_ms_p90", percentile(w.query, 90), len(w.query))
	put("engine.query_ms_p99", percentile(w.query, 99), len(w.query))
	put("engine.query_ms_max", percentile(w.query, 100), len(w.query))
	put("engine.query_ms_p99_during_write", percentile(w.queryDuringWrite, 99), len(w.queryDuringWrite))
	put("engine.patch_ms_p90", percentile(w.patch, 90), len(w.patch))
	put("kvstore.pool_hit_ratio", ratio(float64(k1.CacheHits-k0.CacheHits), float64(k1.CacheHits-k0.CacheHits+k1.CacheMisses-k0.CacheMisses)), 0)
	put("kvstore.pages_retained_max", float64(smp.retained), 0)
	put("kvstore.snapshots_open_max", float64(smp.snapshot), 0)
	put("proc.gc_cycles", float64(g1.NumGC-g0.NumGC), 0)
	put("proc.gc_pause_ms_total", float64(g1.PauseTotalNs-g0.PauseTotalNs)/1e6, 0)
	put("proc.allocs_per_op", ratio(float64(g1.Mallocs-g0.Mallocs), float64(windowOps)), windowOps)
	put("proc.heap_peak_mb", float64(g1.HeapSys)/(1<<20), 0)

	// Traced pass: the same schedule by four routes, on a second, fresh
	// set-up. The window ran for a time, not a count, so what it left in
	// the store and the pool differs from run to run; a fresh fixture has
	// an empty pool, a cold guard cache and nothing but the main document.
	// One unmeasured facade pass over the queries fills pool and cache as
	// far as the workload lets them fill. From there every step is
	// single-threaded, so the pass's page counts repeat for a seed.
	if err := f.postCheck(); err != nil {
		res.fail(fmt.Errorf("post-run check of the window: %w", err))
	}
	if f, err = setUp(spec, sc, seed, filepath.Join(dir, "passes"), false); err != nil {
		return nil, err
	}
	warm, _ := f.tracedSchedule("w", 250)
	f.runFacade(f.eng, warm, make([]opTiming, len(warm)), 0, len(warm), true)
	exSched, split := f.tracedSchedule("x", 300)
	sched, _ := f.tracedSchedule("f", 350)
	httpSched, _ := f.tracedSchedule("h", 400)
	n := len(sched)
	ex := newExploded(n)
	exT, faT, htT := make([]opTiming, n), make([]opTiming, n), make([]opTiming, n)
	var htSamples []sample
	// The queries of a read workload go route by route: a route that ran
	// an operation right after another would find its pages in the pool.
	// Writes (and mixed, whose pool holds everything) go operation by
	// operation, so the three routes time each one moments apart and a
	// slow stretch of the box hits them alike.
	for _, seg := range [][3]int{{0, split, split}, {split, n, 1}} {
		for lo := seg[0]; lo < seg[1]; lo += seg[2] {
			hi := lo + seg[2]
			f.runExploded(ex, exSched, exT, lo, hi)
			f.runFacade(f.eng, sched, faT, lo, hi, false)
			htSamples = append(htSamples, f.runHTTP(httpSched, htT, lo, hi)...)
		}
	}
	res.tally([]phaseResult{{samples: htSamples}})
	for i := range sched {
		for _, t := range []opTiming{exT[i], faT[i]} {
			if t.err != nil {
				res.Attempted++
				res.Failed++
				res.fail(fmt.Errorf("traced op %d (%s): %w", i, sched[i].class, t.err))
			}
		}
		// The routes must agree on what they produced.
		if sched[i].check == checkBody && sched[i].class != clFresh && (exT[i].bytes != faT[i].bytes || faT[i].bytes != htT[i].bytes) {
			res.fail(fmt.Errorf("traced op %d (%s): routes produced %d, %d and %d bytes", i, sched[i].class, exT[i].bytes, faT[i].bytes, htT[i].bytes))
		}
	}

	// The two trace figures are medians over operations of a per-operation
	// share, so a stall that hits one route on a few operations does not
	// pass for missing (or surplus) attribution. They are taken over the
	// operations of the workload's main traffic (all of them in mixed): on
	// ingest the question is how much of a shred is attributed, not how
	// much of the few small queries that ride along.
	var unattributed, overhead []float64
	var runUs, httpOver []float64
	var queryOps int
	var pagesRead, evictions, readAheads int64
	var streamAllocs []float64
	for i, o := range sched {
		if main == phaseMixed || o.kind == main {
			unattributed = append(unattributed, ratio(float64(faT[i].dur-ex.attributed[i]), float64(faT[i].dur))*100)
			overhead = append(overhead, ratio(float64(exT[i].dur-faT[i].dur), float64(faT[i].dur))*100)
		}
		if o.kind != phaseQuery {
			continue
		}
		queryOps++
		runUs = append(runUs, us(faT[i].dur))
		httpOver = append(httpOver, us(htT[i].dur-faT[i].dur))
		pagesRead += ex.pagesRead[i]
		evictions += ex.evictions[i]
		readAheads += ex.readAheads[i]
		if streamClasses[o.class] {
			streamAllocs = append(streamAllocs, float64(ex.allocs[i]))
		}
	}
	put("engine.run_us_p50", median(runUs), len(runUs))
	put("engine.http_overhead_us_p50", median(httpOver), len(httpOver))
	put("trace.unattributed_pct", median(unattributed), len(unattributed))
	put("trace.overhead_pct", median(overhead), len(overhead))
	put("kvstore.pages_read_per_query", ratio(float64(pagesRead), float64(queryOps)), queryOps)
	put("kvstore.evictions_per_query", ratio(float64(evictions), float64(queryOps)), queryOps)
	put("kvstore.readaheads_per_query", ratio(float64(readAheads), float64(queryOps)), queryOps)

	for _, row := range [][2]string{
		{"guard.parse_us_p50", "guard.parse"}, {"semantics.compile_us_p50", "semantics.compile"},
		{"loss.analyze_us_p50", "loss.analyze"}, {"plan.classify_us_p50", "plan.classify"},
		{"stream.execute_us_p50", "stream.execute"}, {"logical.evaluate_us_p50", "logical.evaluate"},
		{"update.parse_us_p50", "update.parse"}, {"store.update_us_p50", "store.update"},
	} {
		v := ex.spansNamed(row[1])
		put(row[0], median(v), len(v))
	}
	streamable := 0
	for _, ok := range ex.guards {
		if ok {
			streamable++
		}
	}
	put("plan.streamable_ratio", ratio(float64(streamable), float64(len(ex.guards))), len(ex.guards))
	put("stream.nodes_per_s", ratio(float64(ex.streamNodes), ex.streamTime.Seconds()), len(ex.firstWrite))
	put("stream.out_mb_per_s", ratio(float64(ex.streamBytes)/1e6, ex.streamTime.Seconds()), len(ex.firstWrite))
	put("stream.allocs_per_op", mean(streamAllocs), len(streamAllocs))
	put("stream.first_write_us_p50", median(ex.firstWrite), len(ex.firstWrite))
	put("logical.kept_types_ratio", ratio(float64(ex.keptTypes), float64(ex.totalTypes)), 0)
	put("store.shred_us_per_node", ratio(us(ex.shredTime), float64(ex.shredNodes)), ex.shredDocs)
	put("store.shred_allocs_per_node", ratio(float64(ex.shredAllocs), float64(ex.shredNodes)), ex.shredDocs)
	put("store.shred_pages_written_per_doc", ratio(float64(ex.shredPages), float64(ex.shredDocs)), ex.shredDocs)
	put("store.write_bytes_per_xml_byte", ratio(float64(ex.shredWrote), float64(ex.shredXML)), ex.shredDocs)
	put("store.update_pages_written_per_op", meanInt(ex.updatePages), len(ex.updatePages))
	put("store.update_nodes_touched_per_op", meanInt(ex.updateNodes), len(ex.updateNodes))
	put("update.shape_changed_ratio", ratio(float64(ex.shapeChanged), float64(len(ex.updatePages))), len(ex.updatePages))

	if err := f.layerProbes(put); err != nil {
		return nil, err
	}
	if err := f.kvReplay(put); err != nil {
		return nil, err
	}
	if err := f.clusterPass(put, sched); err != nil {
		return nil, err
	}

	// Whole-life figures of this store: set-up, window and passes. The
	// file is held against every XML byte ever acknowledged, dropped
	// documents included (their pages are not reclaimed).
	fileInfo, err := os.Stat(storePath(f.dir))
	if err != nil {
		return nil, err
	}
	put("store.file_bytes_per_xml_byte", ratio(float64(fileInfo.Size()), float64(f.ingested)), 0)
	life := f.eng.Stats()
	put("kvstore.wal_bytes_per_sync", ratio(float64(life.WALBytes), float64(life.SyncCalls)), int(life.SyncCalls))
	put("kvstore.fsyncs_per_sync", ratio(float64(life.WALFsyncs), float64(life.SyncCalls)), int(life.SyncCalls))
	put("kvstore.group_commit_size_mean", ratio(float64(life.SyncCalls), float64(life.GroupCommits)), int(life.GroupCommits))

	if err := f.postCheck(); err != nil {
		res.fail(fmt.Errorf("post-run check: %w", err))
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			panic("per-layer metric not reported: " + d.Name)
		}
	}
	res.Metrics = m

	traceFile := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Note     string         `json:"note"`
		Summary  []stageSummary `json:"summary"`
		Spans    []span         `json:"spans"`
	}{
		Workload: spec.name, Seed: seed,
		Note:    "exploded pass: one root span per scheduled operation (op.<class>), children are calls into a layer's public functions; self time = duration - children",
		Summary: ex.tr.summarize(), Spans: ex.tr.spans,
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+spec.name+".json"), traceFile); err != nil {
		return nil, err
	}
	res.WallSeconds = time.Since(begin).Seconds()
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func meanInt(v []int64) float64 {
	var sum int64
	for _, x := range v {
		sum += x
	}
	return ratio(float64(sum), float64(len(v)))
}

// layerProbes times single layers that the facade does not call on their
// own: the join-backed renderer's tree form, the closest join, the type
// scans, and the XML tokenizer floor under shredding.
func (f *fixture) layerProbes(put func(string, float64, int)) error {
	const reps = 9
	st := f.eng.Store()
	sh, err := st.Shape("main")
	if err != nil {
		return err
	}
	checked, err := core.Check(mixGuards[clInvert], sh, nil)
	if err != nil {
		return err
	}
	tgt := checked.Plan.ComposedTarget()
	const (
		auctionType = "site.open_auctions.open_auction"
		bidderType  = auctionType + ".bidder"
	)
	var renderUs, serialUs, joinUs, loadUs, renderAllocs []float64
	var pairs, scanned int64
	var scanTime time.Duration
	for i := 0; i < reps; i++ {
		v := st.View()
		doc, err := v.Doc("main")
		if err != nil {
			v.Close()
			return err
		}
		a0 := heapAllocs()
		start := time.Now()
		out, err := render.Render(doc, tgt, nil)
		renderUs = append(renderUs, us(time.Since(start)))
		if err != nil {
			v.Close()
			return err
		}
		start = time.Now()
		err = out.WriteXML(io.Discard, false)
		serialUs = append(serialUs, us(time.Since(start)))
		renderAllocs = append(renderAllocs, float64(heapAllocs()-a0))
		if err != nil {
			v.Close()
			return err
		}

		// A second Doc, so NodesOfType loads from the store again.
		doc, err = v.Doc("main")
		if err != nil {
			v.Close()
			return err
		}
		start = time.Now()
		bidders := doc.NodesOfType(bidderType)
		loadUs = append(loadUs, us(time.Since(start)))
		auctions := doc.NodesOfType(auctionType)
		start = time.Now()
		g := closest.GroupJoin(bidders, auctions, nil)
		joinUs = append(joinUs, us(time.Since(start)))
		pairs = int64(g.Pairs())

		for _, t := range []string{auctionType, bidderType, bidderType + ".increase"} {
			start = time.Now()
			sc := doc.ScanType(t)
			for sc.Next() {
				scanned++
			}
			err := sc.Err()
			sc.Close()
			scanTime += time.Since(start)
			if err != nil {
				v.Close()
				return err
			}
		}
		v.Close()
	}
	put("render.render_us_p50", median(renderUs), reps)
	put("render.serialize_us_p50", median(serialUs), reps)
	put("render.allocs_per_op", median(renderAllocs), reps)
	put("closest.join_us_p50", median(joinUs), reps)
	put("closest.pairs_per_op", float64(pairs), reps)
	put("store.nodes_of_type_us_p50", median(loadUs), reps)
	put("store.scan_ns_per_node", ratio(float64(scanTime.Nanoseconds()), float64(scanned)), int(scanned))

	xmlBytes := f.in.pool[0].xml
	var tokenize, parse []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		dec := xml.NewDecoder(bytes.NewReader(xmlBytes))
		for {
			if _, err := dec.Token(); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("tokenize probe: %w", err)
			}
		}
		tokenize = append(tokenize, float64(len(xmlBytes))/1e6/time.Since(start).Seconds())
		start = time.Now()
		if _, err := xmltree.Parse(bytes.NewReader(xmlBytes)); err != nil {
			return fmt.Errorf("parse probe: %w", err)
		}
		parse = append(parse, float64(len(xmlBytes))/1e6/time.Since(start).Seconds())
	}
	put("xmltree.tokenize_mb_per_s", median(tokenize), 3)
	put("xmltree.parse_mb_per_s", median(parse), 3)
	return nil
}

// kvReplay measures kvstore alone on this workload's own keys: a copy of
// the store file is read back pair by pair, the pairs are written into a
// scratch durable DB in 1 MiB batches with one Sync each, and the scratch
// DB is then read with the workload's pool size.
func (f *fixture) kvReplay(put func(string, float64, int)) error {
	src := filepath.Join(f.dir, "replay-src.db")
	dst := filepath.Join(f.dir, "replay-dst.db")
	defer os.Remove(src)
	defer os.Remove(dst)
	defer os.Remove(dst + ".wal")
	raw, err := os.ReadFile(storePath(f.dir))
	if err != nil {
		return err
	}
	if err := os.WriteFile(src, raw, 0o644); err != nil {
		return err
	}
	in, err := kvstore.Open(src, &kvstore.Options{CachePages: 1024})
	if err != nil {
		return fmt.Errorf("kv replay: %w", err)
	}
	var keys, vals [][]byte
	err = in.Ascend(nil, nil, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		vals = append(vals, append([]byte(nil), v...))
		return true
	})
	if cerr := in.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("kv replay: %w", err)
	}

	out, err := kvstore.Open(dst, &kvstore.Options{CachePages: f.pool, Durability: true})
	if err != nil {
		return fmt.Errorf("kv replay: %w", err)
	}
	var putTime time.Duration
	var syncUs []float64
	for lo := 0; lo < len(keys); {
		hi, size := lo, 0
		for hi < len(keys) && size < 1<<20 {
			size += len(keys[hi]) + len(vals[hi])
			hi++
		}
		start := time.Now()
		err := out.PutBatch(keys[lo:hi], vals[lo:hi])
		putTime += time.Since(start)
		if err == nil {
			start = time.Now()
			err = out.Sync()
			syncUs = append(syncUs, us(time.Since(start)))
		}
		if err != nil {
			out.Close()
			return fmt.Errorf("kv replay: %w", err)
		}
		lo = hi
	}
	ws := out.Stats()
	if err := out.Close(); err != nil {
		return fmt.Errorf("kv replay: %w", err)
	}
	put("kvstore.put_batch_ns_per_key", ratio(float64(putTime.Nanoseconds()), float64(len(keys))), len(keys))
	put("kvstore.fastpath_ratio", ratio(float64(ws.FastPathHits), float64(ws.Puts)), int(ws.Puts))
	put("kvstore.sync_us_p50", median(syncUs), len(syncUs))

	// Reopen, so the pool starts empty at the workload's size.
	rd, err := kvstore.Open(dst, &kvstore.Options{CachePages: f.pool})
	if err != nil {
		return fmt.Errorf("kv replay: %w", err)
	}
	defer rd.Close()
	n := 0
	start := time.Now()
	if err := rd.Ascend(nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
		return fmt.Errorf("kv replay: %w", err)
	}
	put("kvstore.ascend_ns_per_key", ratio(float64(time.Since(start).Nanoseconds()), float64(n)), n)
	rng := rand.New(rand.NewSource(f.seed))
	var getUs []float64
	for i := 0; i < 2000 && len(keys) > 0; i++ {
		k := keys[rng.Intn(len(keys))]
		start := time.Now()
		_, ok, err := rd.Get(k)
		getUs = append(getUs, us(time.Since(start)))
		if err != nil || !ok {
			return fmt.Errorf("kv replay: get of a replayed key: found=%v err=%v", ok, err)
		}
	}
	put("kvstore.get_us_p50", median(getUs), len(getUs))
	return nil
}

// clusterPass replays the schedule's queries through a 2-shard in-process
// cluster holding the main document, and through a plain engine opened
// on the very shard file that holds it, so the two differ by the routing
// layer alone. Each backend gets one unmeasured pass first.
func (f *fixture) clusterPass(put func(string, float64, int), sched []op) error {
	dir := filepath.Join(f.dir, "cluster")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	cfg := cluster.Config{Shards: 2, Dir: dir, Durability: true, CachePages: f.pool}
	c, err := cluster.New(cfg)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	_, err = c.Shred(ctx, "main", bytes.NewReader(f.in.main.xml), nil)
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cluster shred: %w", err)
	}

	single, out := make([]opTiming, len(sched)), make([]opTiming, len(sched))
	found := false
	for i := 0; i < cfg.Shards && !found; i++ {
		eng, err := engine.Open(filepath.Join(dir, fmt.Sprintf("shard-%d.db", i)), engine.WithCachePages(f.pool), engine.WithDurability(true))
		if err != nil {
			return fmt.Errorf("cluster shard %d: %w", i, err)
		}
		names, err := eng.Docs(ctx, nil)
		if err == nil && len(names) == 1 {
			found = true
			f.runFacade(eng, sched, single, 0, len(sched), true)
			f.runFacade(eng, sched, single, 0, len(sched), true)
		}
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("cluster shard %d: %w", i, err)
		}
	}
	if !found {
		return fmt.Errorf("cluster: no shard file holds the main document")
	}

	// Reopened like the fixture's store: empty pools that hold to size.
	if c, err = cluster.New(cfg); err != nil {
		return fmt.Errorf("cluster reopen: %w", err)
	}
	defer c.Close()
	f.runFacade(c, sched, out, 0, len(sched), true)
	f.runFacade(c, sched, out, 0, len(sched), true)
	var over []float64
	for i, t := range out {
		if sched[i].kind != phaseQuery {
			continue
		}
		if t.err != nil || single[i].err != nil {
			return fmt.Errorf("cluster query %s: cluster %v, single engine %v", sched[i].class, t.err, single[i].err)
		}
		over = append(over, us(t.dur-single[i].dur))
	}
	put("cluster.run_overhead_us_p50", median(over), len(over))
	return nil
}
