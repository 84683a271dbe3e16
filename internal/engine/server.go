package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmorph/internal/guard"
	"xmorph/internal/kvstore"
	"xmorph/internal/loss"
	"xmorph/internal/obs"
	"xmorph/internal/semantics"
	"xmorph/internal/update"
)

// Server exposes a Backend — a single Engine or a sharded Cluster —
// over HTTP: the xmorphd query service. Every request runs under a
// deadline, heavy endpoints pass an admission semaphore (overload
// answers 429 with Retry-After rather than queueing without bound),
// request bodies are size-capped, and each endpoint reports
// request/error counters and a latency histogram into the obs registry
// that /metrics serves.
type Server struct {
	eng     Backend
	mux     *http.ServeMux
	sem     chan struct{}
	timeout time.Duration
	maxBody int64

	// Request-scoped observability: 1-in-sample requests get a trace
	// (negative disables tracing), finished traces land in the ring, and
	// log (when non-nil) gets one JSON access-log line per request.
	sample     int
	reqSeq     atomic.Uint64
	ring       *obs.TraceRing
	log        *slog.Logger
	slowThresh time.Duration
}

// ServerConfig tunes a Server; zero values pick the defaults.
type ServerConfig struct {
	// RequestTimeout bounds each request's pipeline work (default 30s).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently admitted heavy requests (shred,
	// query, shape); excess requests get 429 + Retry-After immediately.
	// Default: GOMAXPROCS.
	MaxInFlight int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// TraceSample traces one in N API requests (default 1: every request
	// carries a span tree into the debug ring). Negative disables request
	// tracing entirely; unsampled requests thread a nil span, so the
	// pipeline's instrumentation costs one pointer compare per site.
	TraceSample int
	// SlowQueryThreshold classifies a traced request as a slow query,
	// retaining its trace in the always-kept slow buffer (default 250ms;
	// negative disables slow retention).
	SlowQueryThreshold time.Duration
	// TraceRingSize bounds the recent-trace ring (default 128).
	TraceRingSize int
	// SlowRingSize bounds the slow-trace buffer (default 32).
	SlowRingSize int
	// AccessLog, when non-nil, receives one structured line per API
	// request (method, route, status, duration, and — for traced
	// requests — trace ID, page I/O, and cache-hit attrs pulled from the
	// finished span tree).
	AccessLog *slog.Logger
}

// NewServer wraps eng in the xmorphd HTTP API.
func NewServer(eng Backend, cfg ServerConfig) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.TraceSample == 0 {
		cfg.TraceSample = 1
	}
	if cfg.SlowQueryThreshold == 0 {
		cfg.SlowQueryThreshold = 250 * time.Millisecond
	}
	if cfg.TraceRingSize <= 0 {
		cfg.TraceRingSize = 128
	}
	if cfg.SlowRingSize <= 0 {
		cfg.SlowRingSize = 32
	}
	s := &Server{
		eng:        eng,
		mux:        http.NewServeMux(),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		timeout:    cfg.RequestTimeout,
		maxBody:    cfg.MaxBodyBytes,
		sample:     cfg.TraceSample,
		ring:       obs.NewTraceRing(cfg.TraceRingSize, cfg.SlowRingSize, cfg.SlowQueryThreshold),
		log:        cfg.AccessLog,
		slowThresh: cfg.SlowQueryThreshold,
	}
	s.registerV1(s.mux)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Route is one row of the versioned API surface: the HTTP method and
// ServeMux pattern it answers on, the short name its metrics and access
// logs use, and whether it sits behind the admission semaphore.
type Route struct {
	Method  string
	Pattern string
	Name    string
	Limited bool
	handler http.HandlerFunc
}

// v1Routes is the whole /v1 surface as data: adding an endpoint is one
// row here, and tests enumerate the same table the mux is built from.
func (s *Server) v1Routes() []Route {
	return []Route{
		{"POST", "/v1/docs/{name}", "shred", true, s.handleShred},
		{"PATCH", "/v1/docs/{name}", "update", true, s.handleUpdate},
		{"DELETE", "/v1/docs/{name}", "drop", true, s.handleDrop},
		{"GET", "/v1/docs", "docs", false, s.handleDocs},
		{"GET", "/v1/docs/{name}/shape", "shape", true, s.handleShape},
		{"POST", "/v1/query", "query", true, s.handleQuery},
	}
}

// registerV1 installs the versioned API routes on mux, wrapping each
// handler in the instrumentation middleware and — for Limited rows —
// the admission semaphore.
func (s *Server) registerV1(mux *http.ServeMux) {
	for _, rt := range s.v1Routes() {
		var h http.Handler
		if rt.Limited {
			h = s.limited(rt.Name, rt.handler)
		} else {
			h = s.instrumented(rt.Name, rt.handler)
		}
		mux.Handle(rt.Method+" "+rt.Pattern, h)
	}
}

// Routes returns the versioned API surface (method, pattern, name,
// admission class) so tests and documentation can enumerate it.
func (s *Server) Routes() []Route { return s.v1Routes() }

var (
	metricThrottled = obs.Default.Counter("xmorphd_throttled_total")
	metricInFlight  = obs.Default.Gauge("xmorphd_inflight")
	metricSampled   = obs.Default.Counter("xmorphd_traces_sampled_total")
	metricSlow      = obs.Default.Counter("xmorphd_slow_requests_total")
	inFlight        atomic.Int64
)

// traceKey carries the request's *obs.Trace through the handler chain.
type traceKey struct{}

// traceFrom returns the request's trace (nil when unsampled).
func traceFrom(ctx context.Context) *obs.Trace {
	tr, _ := ctx.Value(traceKey{}).(*obs.Trace)
	return tr
}

// spanFrom returns the request's root span — nil when unsampled, so the
// engine verbs downstream take the free untraced path.
func spanFrom(ctx context.Context) *obs.Span { return traceFrom(ctx).Root() }

// shouldTrace applies the sampling policy: ?explain=1 always traces
// (the client asked for the span tree), otherwise one in sample requests
// is traced; a negative sample disables tracing.
func (s *Server) shouldTrace(r *http.Request) bool {
	if s.sample < 0 {
		return false
	}
	if s.sample <= 1 {
		return true
	}
	if r.URL.Query().Get("explain") == "1" {
		return true
	}
	return s.reqSeq.Add(1)%uint64(s.sample) == 0
}

// instrumented wraps a handler with per-endpoint request/error counters
// and a latency histogram, stamps the request with the server's deadline,
// and — for sampled requests — threads a trace (identity from
// X-Request-Id, generated otherwise) through the handler, retains it in
// the debug ring when finished, and emits the access-log line.
func (s *Server) instrumented(route string, h http.HandlerFunc) http.Handler {
	requests := obs.Default.Counter("xmorphd_" + route + "_requests_total")
	errs := obs.Default.Counter("xmorphd_" + route + "_errors_total")
	seconds := obs.Default.Histogram("xmorphd_"+route+"_seconds", obs.DurationBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		var tr *obs.Trace
		if s.shouldTrace(r) {
			id := r.Header.Get("X-Request-Id")
			if id == "" {
				id = obs.NewID()
			}
			tr = obs.NewWithID(route, id)
			ctx = context.WithValue(ctx, traceKey{}, tr)
			w.Header().Set("X-Request-Id", id)
			metricSampled.Inc()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r.WithContext(ctx))
		dur := time.Since(start)
		seconds.Observe(dur.Seconds())
		if rec.status >= 400 {
			errs.Inc()
		}
		slow := false
		if tr != nil {
			tr.Finish()
			if slow = s.ring.Add(tr); slow {
				metricSlow.Inc()
			}
		}
		s.logAccess(r, route, rec.status, dur, tr, slow)
	})
}

// logAccess emits the structured access-log line. Request-shape fields
// are always present; span-derived fields (trace ID, page I/O, cache
// hit) only for traced requests.
func (s *Server) logAccess(r *http.Request, route string, status int, dur time.Duration, tr *obs.Trace, slow bool) {
	if s.log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("route", route),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("dur_ms", float64(dur.Nanoseconds())/1e6),
	}
	if tr != nil {
		root := tr.Root()
		_, cacheHit := root.FindAttr("cached")
		attrs = append(attrs,
			slog.String("trace_id", tr.ID()),
			slog.Int64("pages_read", root.SumAttr("pages-read")),
			slog.Int64("page_hits", root.SumAttr("page-hits")),
			slog.Bool("cache_hit", cacheHit),
			slog.Bool("slow", slow),
		)
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
}

// limited adds admission control in front of instrumented: requests
// beyond the in-flight cap are refused immediately with 429 and a
// Retry-After hint, so overload degrades into fast feedback instead of
// unbounded queueing.
func (s *Server) limited(route string, h http.HandlerFunc) http.Handler {
	inner := s.instrumented(route, h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			metricInFlight.Set(float64(inFlight.Add(1)))
			defer func() {
				<-s.sem
				metricInFlight.Set(float64(inFlight.Add(-1)))
			}()
			inner.ServeHTTP(w, r)
		default:
			metricThrottled.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, errors.New("server at capacity"))
		}
	})
}

// statusRecorder captures the response status for the error counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "status": status})
}

// httpStatus maps pipeline errors onto statuses: the compile phase's
// typed errors (syntax with its offset, type mismatch, rejected CAST
// mode) and malformed input are the client's fault (400), missing and
// duplicate documents get their REST statuses, an expired request
// deadline is 504, and an oversized body 413.
func httpStatus(err error) int {
	var (
		syn  *guard.SyntaxError
		upd  *update.SyntaxError
		typ  *semantics.TypeError
		cast *loss.CastError
		big  *http.MaxBytesError
	)
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &big):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &syn), errors.As(err, &upd), errors.As(err, &typ), errors.As(err, &cast):
		return http.StatusBadRequest
	default:
		// Remaining pipeline failures are driven by request content
		// (malformed XML, bad XQuery): the client can fix them.
		return http.StatusBadRequest
	}
}

func (s *Server) handleShred(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	info, err := s.eng.Shred(r.Context(), name, body, spanFrom(r.Context()))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]any{
		"name": info.Name, "nodes": info.Nodes, "types": info.Types,
	})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.eng.Drop(r.Context(), name, spanFrom(r.Context())); err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// updateRequest is the PATCH /v1/docs/{name} body when sent as JSON;
// a text/plain body is the bare edit script.
type updateRequest struct {
	Update string `json:"update"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	var script string
	if ct := r.Header.Get("Content-Type"); strings.Contains(ct, "json") {
		var req updateRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, httpStatus(err), fmt.Errorf("bad request body: %w", err))
			return
		}
		script = req.Update
	} else {
		raw, err := io.ReadAll(body)
		if err != nil {
			writeError(w, httpStatus(err), err)
			return
		}
		script = string(raw)
	}
	if strings.TrimSpace(script) == "" {
		writeError(w, http.StatusBadRequest, errors.New("empty update script"))
		return
	}
	info, err := s.eng.Update(r.Context(), name, script, spanFrom(r.Context()))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"name":           info.Name,
		"ops":            info.Ops,
		"nodes_inserted": info.NodesInserted,
		"nodes_deleted":  info.NodesDeleted,
		"pages_written":  info.PagesWritten,
		"shape_delta": map[string]any{
			"kind":           info.Delta.Kind.String(),
			"types_added":    info.Delta.TypesAdded,
			"types_removed":  info.Delta.TypesRemoved,
			"edges_narrowed": info.Delta.EdgesNarrowed,
			"edges_widened":  info.Delta.EdgesWidened,
			"reordered":      info.Delta.Reordered,
		},
	})
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	names, err := s.eng.Docs(r.Context(), spanFrom(r.Context()))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if names == nil {
		names = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"docs": names})
}

func (s *Server) handleShape(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sh, err := s.eng.Shape(r.Context(), name, spanFrom(r.Context()))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, sh.String())
}

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Doc names the shredded document; Guard is the query guard source.
	Doc   string `json:"doc"`
	Guard string `json:"guard"`
	// Query, when set, runs a guarded XQuery query (architecture #3)
	// instead of rendering the whole transformation.
	Query string `json:"query,omitempty"`
	// Format selects the response: "json" (default, XML + reports in one
	// object) or "xml" (raw transformed XML only, streamed in
	// responseBlock writes).
	Format string `json:"format,omitempty"`
	// Indent pretty-prints the XML in either format.
	Indent bool `json:"indent,omitempty"`
}

// queryResponse is the JSON answer for a morph (and, with Answer set, a
// guarded query).
type queryResponse struct {
	Doc     string `json:"doc"`
	XML     string `json:"xml,omitempty"`
	Answer  string `json:"answer,omitempty"`
	Loss    string `json:"loss,omitempty"`
	Labels  string `json:"labels,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	// Exec names the execution path that produced XML ("stream": the
	// one-pass streaming executor; "store": the join-backed renderer), and
	// Streamable/PlanReason report the planner's verdict on the guard.
	Exec          string `json:"exec,omitempty"`
	Streamable    bool   `json:"streamable,omitempty"`
	PlanReason    string `json:"plan_reason,omitempty"`
	CacheHit      bool   `json:"cache_hit"`
	PagesRead     int64  `json:"pages_read"`
	CompileMicros int64  `json:"compile_us"`
	RenderMicros  int64  `json:"render_us,omitempty"`
	RenderedNodes int    `json:"rendered_nodes,omitempty"`
	KeptTypes     int    `json:"kept_types,omitempty"`
	TotalTypes    int    `json:"total_types,omitempty"`
	// TraceID and Trace carry the request's span tree when the client
	// asked for ?explain=1: per-stage durations, page reads/hits, and the
	// loss verdict in one payload.
	TraceID string          `json:"trace_id,omitempty"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

// explainInto freezes the request trace and embeds its span tree in the
// response (the outer middleware's later Finish keeps this duration).
func explainInto(resp *queryResponse, tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	raw, err := tr.JSON()
	if err != nil {
		return
	}
	resp.TraceID = tr.ID()
	resp.Trace = raw
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, httpStatus(err), fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Doc == "" || req.Guard == "" {
		writeError(w, http.StatusBadRequest, errors.New("doc and guard are required"))
		return
	}
	ctx := r.Context()
	tr := traceFrom(ctx)
	sp := tr.Root()
	explain := r.URL.Query().Get("explain") == "1"

	if req.Query != "" {
		res, err := s.eng.Query(ctx, req.Doc, req.Guard, req.Query, QueryOpts{Span: sp})
		if err != nil {
			writeError(w, httpStatus(err), err)
			return
		}
		resp := queryResponse{
			Doc:           req.Doc,
			Answer:        res.Answer,
			RenderedNodes: res.RenderedNodes,
			KeptTypes:     res.KeptTypes,
			TotalTypes:    res.TotalTypes,
			Streamable:    res.Streamable,
			PlanReason:    res.PlanReason,
			Exec:          res.Exec,
			CacheHit:      res.CacheHit,
			PagesRead:     res.PagesRead,
		}
		if explain {
			explainInto(&resp, tr)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
		return
	}

	if req.Format == "xml" {
		s.queryXML(w, r, &req, sp)
		return
	}

	var xml strings.Builder
	res, err := s.eng.Run(ctx, req.Doc, req.Guard, RunOpts{Span: sp, StreamTo: &xml, Indent: req.Indent})
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	exec := "store"
	if res.Plan.Streamable {
		exec = "stream"
	}
	resp := queryResponse{
		Doc:           req.Doc,
		XML:           xml.String(),
		Loss:          res.Loss.String(),
		Labels:        res.LabelReport(),
		Verdict:       res.Loss.Verdict.String(),
		Exec:          exec,
		Streamable:    res.Plan.Streamable,
		PlanReason:    res.Plan.Reason,
		CacheHit:      res.CacheHit,
		PagesRead:     res.PagesRead,
		CompileMicros: res.CompileTime.Microseconds(),
		RenderMicros:  res.RenderTime.Microseconds(),
	}
	if explain {
		explainInto(&resp, tr)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// responseBlock is the size of the writes an XML body leaves in: one
// chunk and one write syscall per 32 KB, not per 4 KB encoder flush.
const responseBlock = 32 << 10

var blockWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, responseBlock) }}

// queryXML answers a format "xml" query, streamed in responseBlock
// writes. Until a block has reached w, a failed Run drops what it
// buffered and answers with its status; a later failure ends the
// truncated body in a comment.
func (s *Server) queryXML(w http.ResponseWriter, r *http.Request, req *queryRequest, sp *obs.Span) {
	w.Header().Set("Content-Type", "application/xml")
	sent := &sentCounter{w: w}
	bw := blockWriters.Get().(*bufio.Writer)
	bw.Reset(sent)
	defer func() { bw.Reset(nil); blockWriters.Put(bw) }()
	_, err := s.eng.Run(r.Context(), req.Doc, req.Guard, RunOpts{Span: sp, StreamTo: bw, Indent: req.Indent})
	if err != nil && sent.n == 0 {
		writeError(w, httpStatus(err), err)
		return
	}
	bw.Flush()
	if err != nil {
		// Headers are gone; the truncated body is the best signal left.
		fmt.Fprintf(w, "\n<!-- stream aborted: %v -->\n", err)
	}
}

// handleTraces lists the retained traces: the recent ring and the
// always-kept slow buffer, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	recent, slow := s.ring.Summaries()
	if recent == nil {
		recent = []obs.TraceSummary{}
	}
	if slow == nil {
		slow = []obs.TraceSummary{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"slow_threshold_ms": float64(s.ring.Threshold().Nanoseconds()) / 1e6,
		"recent":            recent,
		"slow":              slow,
	})
}

// handleTraceByID serves one retained trace's full span tree.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.ring.Get(id)
	if tr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not retained", id))
		return
	}
	raw, err := tr.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"id":     tr.ID(),
		"dur_ms": float64(tr.Duration().Nanoseconds()) / 1e6,
		"trace":  json.RawMessage(raw),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	MirrorStoreStats(obs.Default, s.eng.Stats())
	snap := obs.Default.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		raw, err := snap.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
		io.WriteString(w, "\n")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, snap.Text())
}

// MirrorStoreStats copies a store's block-I/O, buffer-pool, and WAL
// counters into reg as gauges, so one snapshot carries the pipeline
// histograms and the storage counters together (the CLI's --metrics dump
// and the daemon's /metrics endpoint share this).
func MirrorStoreStats(reg *obs.Registry, s kvstore.Stats) {
	reg.Gauge("kvstore_blocks_read").Set(float64(s.BlocksRead))
	reg.Gauge("kvstore_blocks_written").Set(float64(s.BlocksWritten))
	reg.Gauge("kvstore_cache_hits").Set(float64(s.CacheHits))
	reg.Gauge("kvstore_cache_misses").Set(float64(s.CacheMisses))
	reg.Gauge("kvstore_cache_evictions").Set(float64(s.Evictions))
	reg.Gauge("kvstore_cache_hit_ratio").Set(s.HitRatio())
	reg.Gauge("kvstore_gets").Set(float64(s.Gets))
	reg.Gauge("kvstore_puts").Set(float64(s.Puts))
	reg.Gauge("kvstore_deletes").Set(float64(s.Deletes))
	reg.Gauge("kvstore_seeks").Set(float64(s.Seeks))
	reg.Gauge("kvstore_wal_bytes").Set(float64(s.WALBytes))
	reg.Gauge("kvstore_wal_commits").Set(float64(s.WALCommits))
	reg.Gauge("kvstore_recoveries").Set(float64(s.Recoveries))
	reg.Gauge("kvstore_snapshots_open").Set(float64(s.SnapshotsOpen))
	reg.Gauge("kvstore_epoch").Set(float64(s.Epoch))
	reg.Gauge("kvstore_pages_retained").Set(float64(s.PagesRetained))
	reg.Gauge("kvstore_pages_retired").Set(float64(s.PagesRetired))
	reg.Gauge("kvstore_sync_calls").Set(float64(s.SyncCalls))
	reg.Gauge("kvstore_group_commits").Set(float64(s.GroupCommits))
	reg.Gauge("kvstore_wal_commit_fsyncs").Set(float64(s.WALFsyncs))
	reg.Gauge("kvstore_commit_lsn").Set(float64(s.CommitLSN))
	reg.Gauge("kvstore_applied_lsn").Set(float64(s.AppliedLSN))
}

// sentCounter counts the bytes that reached w.
type sentCounter struct {
	w io.Writer
	n int64
}

func (c *sentCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
