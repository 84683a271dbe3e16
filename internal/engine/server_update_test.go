package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmorph/internal/xmltree"
)

// TestServerRouteTable: the versioned API surface is enumerable as data,
// every row is actually routed, and PATCH (the update verb) is one row.
func TestServerRouteTable(t *testing.T) {
	_, srv, ts := newTestServer(t, ServerConfig{})
	routes := srv.Routes()
	want := map[string]bool{
		"POST /v1/docs/{name}":      true,
		"PATCH /v1/docs/{name}":     true,
		"DELETE /v1/docs/{name}":    true,
		"GET /v1/docs":              true,
		"GET /v1/docs/{name}/shape": true,
		"POST /v1/query":            true,
	}
	if len(routes) != len(want) {
		t.Fatalf("route table has %d rows, want %d", len(routes), len(want))
	}
	for _, rt := range routes {
		key := rt.Method + " " + rt.Pattern
		if !want[key] {
			t.Errorf("unexpected route %s", key)
		}
		delete(want, key)
		if rt.Name == "" {
			t.Errorf("route %s has no metrics name", key)
		}
	}
	for key := range want {
		t.Errorf("route %s missing from table", key)
	}

	// Every row answers through the mux (404 from the mux would mean an
	// unrouted row; these all exist, so any status != 404/405 is routed).
	shredHTTP(t, ts.URL, "books")
	probes := []struct {
		method, path string
		body         string
	}{
		{"PATCH", "/v1/docs/books", `insert <x>1</x> into data.book`},
		{"DELETE", "/v1/docs/books", ""},
		{"GET", "/v1/docs", ""},
	}
	for _, p := range probes {
		req, err := http.NewRequest(p.method, ts.URL+p.path, strings.NewReader(p.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s %s not routed: status %d", p.method, p.path, resp.StatusCode)
		}
	}
}

// TestServerUpdateEndpoint drives PATCH /v1/docs/{name} end to end:
// plain-text and JSON bodies, the shape-delta report, the visible effect
// on a follow-up query, and the error statuses.
func TestServerUpdateEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, ServerConfig{})
	shredHTTP(t, ts.URL, "books")

	patch := func(name, contentType, body string) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/docs/"+name, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		raw, _ := io.ReadAll(resp.Body)
		json.Unmarshal(raw, &out)
		return resp, out
	}

	// Plain-text script.
	resp, out := patch("books", "text/plain", `insert <isbn>9</isbn> into data.book`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text patch status %d: %v", resp.StatusCode, out)
	}
	if out["nodes_inserted"].(float64) != 2 || out["ops"].(float64) != 1 {
		t.Errorf("patch report = %v", out)
	}
	delta, _ := out["shape_delta"].(map[string]any)
	if delta == nil || delta["kind"] != "widened" {
		t.Errorf("shape_delta = %v, want widened", out["shape_delta"])
	}

	// JSON script: shape-preserving replace.
	resp, out = patch("books", "application/json",
		`{"update":"replace data.book.isbn with <isbn>10</isbn>"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json patch status %d: %v", resp.StatusCode, out)
	}
	if delta, _ := out["shape_delta"].(map[string]any); delta == nil || delta["kind"] != "unchanged" {
		t.Errorf("replace shape_delta = %v, want unchanged", out["shape_delta"])
	}

	// The edit is query-visible.
	qresp, data := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"doc": "books", "guard": "MORPH book [ isbn ]",
		"query": `for $i in doc("books")//isbn return string($i)`,
	})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", qresp.StatusCode, data)
	}
	var qr struct {
		Answer string `json:"answer"`
	}
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if strings.Count(qr.Answer, "10") != 2 {
		t.Errorf("query after patch answered %q, want two 10s", qr.Answer)
	}

	// Errors: bad script 400 with offset, missing doc 404, empty body 400.
	resp, out = patch("books", "text/plain", `mangle data.book`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad script status %d", resp.StatusCode)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "offset") {
		t.Errorf("bad-script error carries no position: %v", out)
	}
	if resp, _ = patch("nosuch", "text/plain", `delete a.b`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing doc status %d", resp.StatusCode)
	}
	if resp, _ = patch("books", "text/plain", "   "); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty script status %d", resp.StatusCode)
	}
}

// FuzzPatchRoute sends arbitrary bodies, as edit scripts and as JSON, to
// PATCH /v1/docs/d through Server.Handler over a memory engine holding
// sampleXML. The route never panics and never answers 5xx; after a 4xx
// the document reconstructs byte-identical to before, and after a 2xx
// the stored shape hash is the one a fresh shred of the reconstructed
// document stores.
func FuzzPatchRoute(f *testing.F) {
	for _, s := range []string{
		`insert <isbn>9</isbn> into data.book`,
		`insert <note a="1"><b/></note> before data.book.author; delete data.book.title`,
		`insert <x/> after data.book.author.name`,
		`replace data.book.author with <author><name>W</name><name>Z</name></author>`,
		`replace data.book.title with <title>T</title>; delete data.book.title`,
		`delete data.book.author.name`,
		`delete data`,
		`delete data.nothing`,
		`insert <a> into data.book`,
		`mangle data.book`,
		`{"update":"insert <isbn>9</isbn> into data.book"}`,
		`{"update":""}`,
		`{"update":`,
		"",
	} {
		f.Add(s, strings.HasPrefix(s, "{"))
	}
	f.Fuzz(func(t *testing.T, body string, asJSON bool) {
		ctx := context.Background()
		eng := newEngine(t)
		shredSample(t, eng, "d")
		before := reconstruct(t, eng, "d").XML(false)

		req := httptest.NewRequest(http.MethodPatch, "/v1/docs/d", strings.NewReader(body))
		req.Header.Set("Content-Type", "text/plain")
		if asJSON {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		NewServer(eng, ServerConfig{}).Handler().ServeHTTP(rec, req)

		after := reconstruct(t, eng, "d").XML(false)
		switch {
		case rec.Code >= 500:
			t.Fatalf("PATCH %q: status %d: %s", body, rec.Code, rec.Body)
		case rec.Code >= 400:
			if after != before {
				t.Fatalf("PATCH %q refused with %d but changed the document:\n%s\nto\n%s", body, rec.Code, before, after)
			}
		default:
			fresh := newEngine(t)
			if _, err := fresh.Shred(ctx, "d", strings.NewReader(after), nil); err != nil {
				t.Fatalf("PATCH %q: the edited document does not shred: %v\n%s", body, err, after)
			}
			if got, want := shapeHash(t, eng), shapeHash(t, fresh); got != want {
				t.Fatalf("PATCH %q: stored shape hash %x, a fresh shred's %x\n%s", body, got, want, after)
			}
		}
	})
}

// shapeHash reads document "d"'s stored shape hash.
func shapeHash(t *testing.T, eng *Engine) uint64 {
	t.Helper()
	v := eng.st.View()
	defer v.Close()
	h, ok, err := v.ShapeHash("d")
	if err != nil || !ok {
		t.Fatalf("ShapeHash: ok=%v err=%v", ok, err)
	}
	return h
}

// nestedXML repeats labels at several depths (book inside author inside
// book), so guards over it meet ambiguous labels and closest joins.
const nestedXML = `<data><book><title>X</title><author><name>V</name><book><title>Y</title><author><name>U</name></author></book></author></book><book><title>Z</title></book></data>`

// FuzzQueryRoute drives POST /v1/query with arbitrary fields over a
// small stored document: no request is a server error, none changes the
// document, and a 200 carries a body that parses (JSON, or the XML of a
// format "xml" answer).
func FuzzQueryRoute(f *testing.F) {
	for _, s := range [][4]string{
		{"d", "MORPH author [ name title ]", "", ""},
		{"d", "CAST MORPH book [ title ]", "", "xml"},
		{"d", "MUTATE data", "", "json"},
		{"d", "CAST MUTATE author [ CLONE book ]", "", ""},
		{"d", "CAST MORPH title [ name ] | TRANSLATE title -> t", "", "xml"},
		{"d", "MORPH author [ name title ]", `for $a in doc("d")//author return string($a/name)`, ""},
		{"d", "MORPH author", "count(", ""},
		{"d", "MORPH ghost", "", ""},
		{"missing", "MORPH author", "", ""},
		{"d", "", "", ""},
		{"d", "MORPH (", "", "xml"},
	} {
		f.Add(s[0], s[1], s[2], s[3])
	}
	ctx := context.Background()
	eng := OpenMemory()
	f.Cleanup(func() { eng.Close() })
	if _, err := eng.Shred(ctx, "d", strings.NewReader(nestedXML), nil); err != nil {
		f.Fatal(err)
	}
	var before string
	h := NewServer(eng, ServerConfig{}).Handler()
	f.Fuzz(func(t *testing.T, doc, guard, query, format string) {
		body, err := json.Marshal(queryRequest{Doc: doc, Guard: guard, Query: query, Format: format})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("query %s: status %d: %s", body, rec.Code, rec.Body)
		}
		if got := reconstruct(t, eng, "d").XML(false); before == "" {
			before = got
		} else if got != before {
			t.Fatalf("query %s (status %d) changed the document:\n%s\nto\n%s", body, rec.Code, before, got)
		}
		if rec.Code != http.StatusOK {
			return
		}
		if format == "xml" && query == "" {
			// The answer is a forest when the target has several roots.
			forest := "<answer>" + rec.Body.String() + "</answer>"
			if _, err := xmltree.Parse(strings.NewReader(forest)); err != nil {
				t.Fatalf("query %s: the XML answer does not parse: %v\n%s", body, err, rec.Body)
			}
		} else if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("query %s: the JSON answer does not parse:\n%s", body, rec.Body)
		}
	})
}
