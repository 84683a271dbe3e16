package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one query's span tree. The zero value is unusable; build with
// New. A nil *Trace is a no-op everywhere, which is how tracing stays
// compiled into the pipeline for free: callers thread a nil trace (or a
// nil root span) and every instrumentation site short-circuits without
// allocating.
type Trace struct {
	id   string
	root *Span
}

// New starts a trace whose root span is already running.
func New(name string) *Trace {
	return &Trace{root: &Span{name: name, start: time.Now()}}
}

// NewWithID starts a trace carrying a request-scoped identity — the
// service layer's trace ID, accepted from the client (X-Request-Id) or
// generated with NewID.
func NewWithID(name, id string) *Trace {
	t := New(name)
	t.id = id
	return t
}

// idSeq breaks ties when the random source is unavailable.
var idSeq atomic.Uint64

// NewID returns a fresh 16-hex-digit trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The random source failing is effectively impossible; fall back
		// to a time+sequence ID rather than propagating an error into
		// every request path.
		v := uint64(time.Now().UnixNano())<<16 | (idSeq.Add(1) & 0xffff)
		for i := range b {
			b[i] = byte(v >> (8 * (7 - i)))
		}
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace's identity ("" when none was assigned).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Start returns the root span's start time (zero for a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.root.start
}

// Duration returns the root span's duration (see Span.Duration).
func (t *Trace) Duration() time.Duration { return t.Root().Duration() }

// Finish ends the root span.
func (t *Trace) Finish() {
	if t != nil {
		t.root.End()
	}
}

// Span is one timed region of the pipeline with nested children and
// key/value annotations. All methods are nil-safe and safe for
// concurrent use: every layer writes into whatever span it is handed,
// none of them can know which goroutines hold the same one, and the
// contract is tested under -race (TestConcurrentCountersAndSpans).
type Span struct {
	name  string
	start time.Time

	mu    sync.Mutex
	dur   time.Duration
	ended bool
	attrs []Attr
	kids  []*Span
}

// Attr is one span annotation, in insertion order.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Child starts a nested span. On a nil receiver it returns nil, so an
// untraced call chain costs one pointer comparison per site.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.kids = append(s.kids, c)
	s.mu.Unlock()
	return c
}

// End freezes the span's duration; extra Ends keep the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Set annotates the span with an integer value (node counts, page I/O).
// Setting a key again replaces its value (last write wins), so repeated
// annotation of one site stays unambiguous in EXPLAIN output.
func (s *Span) Set(key string, v int64) { s.SetStr(key, strconv.FormatInt(v, 10)) }

// SetStr annotates the span with a string value (verdicts, modes).
// Last write wins, as with Set.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Attr returns the span's own value for key (not descending into
// children) and whether it is present.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// FindAttr returns the first value for key in a depth-first walk of the
// span tree — how the access log pulls one-off markers (a compile span's
// cached=1) out of a finished trace.
func (s *Span) FindAttr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	if v, ok := s.Attr(key); ok {
		return v, true
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.kids...)
	s.mu.Unlock()
	for _, k := range kids {
		if v, ok := k.FindAttr(key); ok {
			return v, true
		}
	}
	return "", false
}

// SumAttr totals key's integer values across the whole span tree —
// summing per-stage "pages-read" annotations into one request figure.
// Non-integer values count as zero.
func (s *Span) SumAttr(key string) int64 {
	if s == nil {
		return 0
	}
	var total int64
	if v, ok := s.Attr(key); ok {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.kids...)
	s.mu.Unlock()
	for _, k := range kids {
		total += k.SumAttr(key)
	}
	return total
}

// Duration returns the span's frozen duration (elapsed time if still
// running, zero for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Text renders the span tree as an indented tree with durations:
//
//	run 1.2ms
//	  compile 310µs labels=2 verdict=strongly-typed
//	    parse-guard 12µs
//
// For stable output (golden files) use TextZeroDurations.
func (t *Trace) Text() string { return t.text(false) }

// TextZeroDurations renders the tree with every duration printed as 0s,
// leaving only the stable structure: span names and annotations.
func (t *Trace) TextZeroDurations() string { return t.text(true) }

func (t *Trace) text(zeroDur bool) string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	t.root.writeText(&b, 0, zeroDur)
	return b.String()
}

func (s *Span) writeText(w io.Writer, depth int, zeroDur bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := append([]Attr(nil), s.attrs...)
	kids := append([]*Span(nil), s.kids...)
	s.mu.Unlock()

	if zeroDur {
		dur = 0
	}
	fmt.Fprintf(w, "%s%s %s", strings.Repeat("  ", depth), s.name, dur)
	for _, a := range attrs {
		fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
	}
	io.WriteString(w, "\n")
	for _, k := range kids {
		k.writeText(w, depth+1, zeroDur)
	}
}

// spanJSON mirrors a span for serialization.
type spanJSON struct {
	Name    string     `json:"name"`
	Dur     int64      `json:"dur_ns"`
	Attrs   []Attr     `json:"attrs,omitempty"`
	Spans   []spanJSON `json:"spans,omitempty"`
	Running bool       `json:"running,omitempty"`
}

// JSON renders the span tree as indented JSON (dur_ns per span).
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(t.root.toJSON(), "", "  ")
}

func (s *Span) toJSON() spanJSON {
	s.mu.Lock()
	out := spanJSON{
		Name:    s.name,
		Dur:     int64(s.dur),
		Attrs:   append([]Attr(nil), s.attrs...),
		Running: !s.ended,
	}
	if !s.ended {
		out.Dur = int64(time.Since(s.start))
	}
	kids := append([]*Span(nil), s.kids...)
	s.mu.Unlock()
	for _, k := range kids {
		out.Spans = append(out.Spans, k.toJSON())
	}
	return out
}
