package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/store"
)

func newTestServer(t *testing.T, cfg ServerConfig) (*Engine, *Server, *httptest.Server) {
	t.Helper()
	eng := newEngine(t)
	srv := NewServer(eng, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func shredHTTP(t *testing.T, base, name string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/docs/"+name, "application/xml", strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("shred status %d: %s", resp.StatusCode, body)
	}
}

func TestServerShredQueryShapePipeline(t *testing.T) {
	eng, _, ts := newTestServer(t, ServerConfig{})
	shredHTTP(t, ts.URL, "books")

	// Duplicate shred conflicts.
	resp, err := http.Post(ts.URL+"/v1/docs/books", "application/xml", strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate shred status = %d, want 409", resp.StatusCode)
	}

	// Listing.
	resp, err = http.Get(ts.URL + "/v1/docs")
	if err != nil {
		t.Fatal(err)
	}
	var docs struct {
		Docs []string `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(docs.Docs) != 1 || docs.Docs[0] != "books" {
		t.Errorf("docs = %v", docs.Docs)
	}

	// Shape equals the engine's view.
	resp, err = http.Get(ts.URL + "/v1/docs/books/shape")
	if err != nil {
		t.Fatal(err)
	}
	shapeText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sh, err := eng.Shape(nil, "books", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(shapeText) != sh.String() {
		t.Errorf("served shape differs:\n%s\nvs\n%s", shapeText, sh.String())
	}

	// Query: JSON answer carries the same XML and loss bytes as a direct
	// engine run (which TestEngineRunMatchesCore ties to the CLI pipeline).
	resp2, data := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp2.StatusCode, data)
	}
	var qr struct {
		XML      string `json:"xml"`
		Loss     string `json:"loss"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	want, res := runXML(t, eng, "books", sampleGuard, RunOpts{})
	if qr.XML != want {
		t.Errorf("served XML differs from engine run:\n%q\nvs\n%q", qr.XML, want)
	}
	if qr.Loss != res.Loss.String() {
		t.Errorf("served loss report differs:\n%q\nvs\n%q", qr.Loss, res.Loss.String())
	}

	// The guard was compiled by the first query; the second is a hit.
	_, data = postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard})
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.CacheHit {
		t.Error("repeat query missed the guard cache")
	}

	// The raw XML route returns the JSON answer's XML, and a body that
	// still carries the retired "stream" field is accepted unchanged.
	_, raw := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard, "format": "xml"})
	_, streamed := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard, "format": "xml", "stream": true})
	if string(raw) != want || !bytes.Equal(raw, streamed) {
		t.Errorf("format xml bytes differ from the JSON xml:\n%q\n%q\nvs\n%q", raw, streamed, want)
	}

	// XQuery over the guard's output.
	resp2, data = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"doc": "books", "guard": sampleGuard,
		"query": `for $a in doc("books")//author where $a/title = "X" return string($a/name)`,
	})
	var ans struct {
		Answer string `json:"answer"`
	}
	if err := json.Unmarshal(data, &ans); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || strings.TrimSpace(ans.Answer) != "V" {
		t.Errorf("guarded query: status %d answer %q", resp2.StatusCode, ans.Answer)
	}

	// Drop, then the document is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/docs/books", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("drop status = %d", resp.StatusCode)
	}
	resp2, _ = postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard})
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("query after drop status = %d, want 404", resp2.StatusCode)
	}
}

// TestServerIndentBothFormats: the indent field applies to both
// response formats, for a streamable and a store-backed guard alike: the
// raw XML body and the JSON answer's XML equal the in-memory transform's
// tree serialized with the same indentation.
func TestServerIndentBothFormats(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{})
	shredHTTP(t, ts.URL, "books")
	for _, g := range []string{streamableGuard, sampleGuard} {
		want := transformed(t, g, sampleXML).Output
		for _, indent := range []bool{false, true} {
			exp := want.XML(indent)
			resp, raw := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": g, "format": "xml", "indent": indent})
			if resp.StatusCode != http.StatusOK || string(raw) != exp {
				t.Errorf("%s: format xml, indent %v: status %d\n%q\nwant\n%q", g, indent, resp.StatusCode, raw, exp)
			}
			_, data := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": g, "indent": indent})
			var qr struct {
				XML string `json:"xml"`
			}
			if err := json.Unmarshal(data, &qr); err != nil || qr.XML != exp {
				t.Errorf("%s: JSON xml, indent %v (err %v):\n%q\nwant\n%q", g, indent, err, qr.XML, exp)
			}
		}
	}
}

func TestServerMalformedGuardIs400WithPosition(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{})
	shredHTTP(t, ts.URL, "books")

	resp, data := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": "MORPH ["})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed guard status = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "offset") {
		t.Errorf("error %q does not carry the parse position", e.Error)
	}
}

// TestServerQueryArityIs400: a library function called with the wrong
// number of arguments is the client's error, answered as JSON.
func TestServerQueryArityIs400(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{})
	shredHTTP(t, ts.URL, "books")
	for _, fn := range []string{"count", "string", "exists", "not", "number", "name", "distinct-values"} {
		resp, data := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"doc": "books", "guard": sampleGuard, "query": fn + "()",
		})
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil || e.Error == "" {
			t.Errorf("%s(): status %d body %s, want a JSON 400", fn, resp.StatusCode, data)
		}
	}
}

// TestServerStreamedRouteCompilesOnce: the streamed XML route compiles
// the guard once, inside Run — a fresh guard costs one cache miss and no
// hit — and failures before the first body byte keep their status.
func TestServerStreamedRouteCompilesOnce(t *testing.T) {
	eng, _, ts := newTestServer(t, ServerConfig{})
	shredHTTP(t, ts.URL, "books")
	hits0, misses0 := eng.CacheStats()
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard, "format": "xml"})
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("<name>V</name>")) {
		t.Fatalf("streamed query: status %d body %q", resp.StatusCode, body)
	}
	if hits, misses := eng.CacheStats(); hits != hits0 || misses != misses0+1 {
		t.Errorf("fresh guard on the streamed route: %d hits, %d misses; want 0 and 1", hits-hits0, misses-misses0)
	}

	for _, c := range []struct {
		doc, guard string
		status     int
	}{
		{"books", "MORPH [", http.StatusBadRequest},
		{"missing", sampleGuard, http.StatusNotFound},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": c.doc, "guard": c.guard, "format": "xml"})
		if resp.StatusCode != c.status {
			t.Errorf("streamed query of %q on %q: status %d, want %d (%s)", c.guard, c.doc, resp.StatusCode, c.status, body)
		}
		if bytes.Contains(body, []byte("stream aborted")) {
			t.Errorf("failure before the first byte came back as an aborted stream: %s", body)
		}
	}
}

func TestServerDeadlineIs504(t *testing.T) {
	// Two handlers over one engine: shred through a normal one, query
	// through one whose per-request deadline has no chance of being met.
	eng := newEngine(t)
	fast := httptest.NewServer(NewServer(eng, ServerConfig{}).Handler())
	defer fast.Close()
	shredHTTP(t, fast.URL, "books")

	slow := httptest.NewServer(NewServer(eng, ServerConfig{RequestTimeout: time.Nanosecond}).Handler())
	defer slow.Close()
	resp, data := postJSON(t, slow.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline status = %d (%s), want 504", resp.StatusCode, data)
	}
}

func TestServerOverloadIs429(t *testing.T) {
	_, srv, ts := newTestServer(t, ServerConfig{MaxInFlight: 1})
	shredHTTP(t, ts.URL, "books")

	// Fill the admission semaphore so the next request is refused.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	resp, data := postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestServerBodyCapIs413(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{MaxBodyBytes: 16})
	resp, err := http.Post(ts.URL+"/v1/docs/big", "application/xml", strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestServerDepthBombIs400: a body of unclosed nested tags, far under the
// body cap, is refused as malformed input and leaves no document behind.
func TestServerDepthBombIs400(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{})
	resp, err := http.Post(ts.URL+"/v1/docs/bomb", "application/xml", strings.NewReader(strings.Repeat("<a>", 1<<17)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("depth bomb status = %d, want 400", resp.StatusCode)
	}
	shredHTTP(t, ts.URL, "bomb") // the name is still free
}

func TestServerMetricsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{})
	shredHTTP(t, ts.URL, "books")
	postJSON(t, ts.URL+"/v1/query", map[string]any{"doc": "books", "guard": sampleGuard})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"xmorphd_query_requests_total", "kvstore_cache_hit_ratio", "engine_guard_cache"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var parsed map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Errorf("metrics json does not parse: %v", err)
	}
}

// TestServerGracefulDrain serves a burst of concurrent readers and
// writers through a real http.Server, shuts down, and verifies every
// admitted request completed and the store closed cleanly (reopening
// replays no WAL).
func TestServerGracefulDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.db")
	eng, err := Open(path, WithCachePages(128))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Shred(nil, "books", strings.NewReader(sampleXML), nil); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: NewServer(eng, ServerConfig{}).Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	const clients, writers = 8, 2
	var wg sync.WaitGroup
	errs := make(chan error, clients+writers)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(base+"/v1/query", "application/json",
					strings.NewReader(fmt.Sprintf(`{"doc":"books","guard":%q}`, sampleGuard)))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests:
				default:
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	// Two writers beside the readers, each cycling its own documents
	// through POST, PATCH and DELETE on the durable store. A shed write
	// (429) is skipped; a shed POST skips the round, its document never
	// having existed.
	do := func(method, url, body string) (int, error) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusCreated, http.StatusNoContent, http.StatusTooManyRequests:
			return resp.StatusCode, nil
		}
		return 0, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, msg)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				url := fmt.Sprintf("%s/v1/docs/w%d-%d", base, w, i)
				status, err := do(http.MethodPost, url, sampleXML)
				if err == nil && status == http.StatusCreated {
					_, err = do(http.MethodPatch, url, `insert <isbn>9</isbn> into data.book`)
					if err == nil {
						_, err = do(http.MethodDelete, url, "")
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := hs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Errorf("serve returned %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats().Recoveries; got != 0 {
		t.Errorf("drained store replayed the WAL on reopen: recoveries=%d", got)
	}
	v := st.View()
	defer v.Close()
	if _, err := v.Shape("books"); err != nil {
		t.Errorf("document lost across drain: %v", err)
	}
}

// writeCounter is a ResponseWriter that counts the body writes reaching
// it.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(p)
}

// failAfterWrite is a Backend whose Run writes the start of a document
// into its sink and then fails, as a store error mid-render would.
type failAfterWrite struct{ Backend }

func (failAfterWrite) Run(_ context.Context, name, _ string, opts RunOpts) (*RunResult, error) {
	io.WriteString(opts.StreamTo, "<site><regions>")
	return nil, fmt.Errorf("%w: %q (injected)", ErrNotFound, name)
}

// TestStreamedResponseBlocks: an XML body reaches the ResponseWriter in
// blocks of responseBlock bytes, not in the encoder's 4 KB pieces; it
// equals the JSON answer's XML byte for byte; and a Run that fails before
// its first block is flushed answers with its own status and no XML.
func TestStreamedResponseBlocks(t *testing.T) {
	eng := newEngine(t)
	xml := xmark.Generate(xmark.Config{Factor: 0.006, Seed: 28}).XML(false)
	if _, err := eng.Shred(context.Background(), "site", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	query := func(b Backend, body map[string]any) *writeCounter {
		raw, _ := json.Marshal(body)
		w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
		NewServer(b, ServerConfig{}).Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(raw)))
		return w
	}
	identity := map[string]any{"doc": "site", "guard": "CAST MUTATE site", "format": "xml"}
	streamed := query(eng, identity)
	n := streamed.Body.Len()
	if streamed.Code != http.StatusOK || n < 200<<10 {
		t.Fatalf("streamed identity: status %d, %d bytes; want 200 and >= 200 KB", streamed.Code, n)
	}
	if max := (n+responseBlock-1)/responseBlock + 1; streamed.writes > max {
		t.Errorf("%d-byte body reached the ResponseWriter in %d writes, want <= %d", n, streamed.writes, max)
	}
	delete(identity, "format")
	var whole struct {
		XML string `json:"xml"`
	}
	if err := json.Unmarshal(query(eng, identity).Body.Bytes(), &whole); err != nil || whole.XML != streamed.Body.String() {
		t.Errorf("streamed body (%d bytes) differs from the JSON xml (%d bytes, err %v)", n, len(whole.XML), err)
	}

	identity["format"] = "xml"
	failed := query(failAfterWrite{eng}, identity)
	if failed.Code != http.StatusNotFound {
		t.Errorf("failure before the first block: status %d, want 404 (%s)", failed.Code, failed.Body)
	}
	if b := failed.Body.String(); strings.Contains(b, "<site") || !strings.Contains(b, "injected") {
		t.Errorf("failure before the first block: body %q, want the error and no XML", b)
	}
}
