// Package obs is the zero-dependency observability layer of the query
// pipeline: a metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms with quantile snapshots) plus lightweight tracing
// (nested spans with durations and key/value annotations).
//
// The paper's evaluation (Sections VIII-IX) is entirely about seeing what
// a guarded transformation costs — block I/O, wait time, memory.
// internal/bench's resource sampler reproduces the coarse vmstat view
// (Figs. 11-13); obs adds the per-phase view: where
// time goes inside parse -> typecheck -> closest join -> render, and how
// the buffer pool behaves while it happens.
//
// Everything here is safe for concurrent use, and every trace entry point
// is nil-safe: a nil *Trace or *Span is a no-op that allocates nothing,
// so instrumentation can stay compiled into hot paths.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil Counter is
// a usable no-op.
type Counter struct {
	v int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic float64 value that can move in both directions. A
// nil Gauge is a usable no-op.
type Gauge struct {
	bits uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// DurationBuckets are the default histogram bounds for phase latencies,
// in seconds: 100µs up to 10s, roughly exponential. Observations above
// the last bound land in the overflow bucket.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// WaitBuckets are histogram bounds for lock waits and fsync latencies,
// in seconds: 1µs up to 1s. These sit well below DurationBuckets because
// an uncontended mutex handoff or an SSD fsync is microseconds, not
// milliseconds, and the MVCC/group-commit baseline needs that resolution.
var WaitBuckets = []float64{
	0.000001, 0.0000025, 0.000005,
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1,
}

// GroupSizeBuckets are histogram bounds for group-commit batch sizes —
// how many Sync callers shared one flush. Sizes are small integers, so
// the buckets are unit-ish steps: a p50 above 1 means fsyncs are being
// amortized across committers.
var GroupSizeBuckets = []float64{
	1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations v
// with v <= Bounds[i] (and > Bounds[i-1]); one extra overflow bucket
// counts everything above the last bound. Observe is lock-free.
type Histogram struct {
	bounds  []float64
	counts  []int64 // len(bounds)+1; the last is the overflow bucket
	count   int64
	sumBits uint64 // float64 bits, updated by CAS
}

// NewHistogram builds a histogram over strictly increasing bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value. A nil Histogram is a usable no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, nb) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram with derived
// quantiles.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1, last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Snapshot copies the histogram state and computes p50/p95/p99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  atomic.LoadInt64(&h.count),
		Sum:    math.Float64frombits(atomic.LoadUint64(&h.sumBits)),
	}
	for i := range h.counts {
		s.Counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket holding the target rank; the lower edge of the first
// bucket is taken as 0 (histograms here hold nonnegative measurements).
// Ranks landing in the overflow bucket clamp to the last bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum >= rank && c > 0 {
			if i == len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := (rank - prev) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (s.Bounds[i]-lo)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry holds named counters, gauges, and histograms. Lookups
// get-or-create, so instrumentation sites can grab their instrument once
// at init and hold it (lock-free from then on) or look it up per use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	gaugeFuncs map[string]func() float64
}

// Default is the process-wide registry the pipeline instruments report
// into; the CLI's --metrics flag and xmorphbench's /metrics endpoint dump
// it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		hists:      map[string]*Histogram{},
		gaugeFuncs: map[string]func() float64{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use; an existing histogram keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a gauge computed at snapshot time — for mirroring
// externally-owned counters (e.g. a store's buffer-pool hit ratio)
// without polling.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Reset drops every registered instrument (test isolation).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.gaugeFuncs = map[string]func() float64{}
}

// Snapshot is a point-in-time copy of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	gaugeFuncs := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)+len(gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, fn := range gaugeFuncs {
		s.Gauges[k] = fn()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// Text renders the snapshot as sorted "kind name value" lines; histograms
// show count, sum, and the three quantiles.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %g\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "hist %s count=%d sum=%g p50=%g p95=%g p99=%g\n",
			k, h.Count, h.Sum, h.P50, h.P95, h.P99)
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
