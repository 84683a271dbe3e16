package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmorph/internal/core"
	"xmorph/internal/engine"
)

const sample = `<data>
  <book><title>X</title><author><name>V</name></author></book>
  <book><title>Y</title><author><name>U</name></author></book>
</data>`

func tempXML(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "d.xml")
	if err := os.WriteFile(p, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func opts(t *testing.T) options {
	return options{
		store:  filepath.Join(t.TempDir(), "t.db"),
		cache:  64,
		indent: false,
		quiet:  true,
	}
}

// capture redirects stdout during fn.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), ferr
}

func TestDispatchShredRunPipeline(t *testing.T) {
	o := opts(t)
	xml := tempXML(t)

	out, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shredded \"books\"") {
		t.Errorf("shred output: %s", out)
	}

	out, err = capture(t, func() error { return dispatch(o, []string{"docs"}) })
	if err != nil || strings.TrimSpace(out) != "books" {
		t.Errorf("docs = %q, err %v", out, err)
	}

	out, err = capture(t, func() error { return dispatch(o, []string{"shape", "books"}) })
	if err != nil || !strings.Contains(out, "data.book.author 1..1") {
		t.Errorf("shape = %q, err %v", out, err)
	}

	out, err = capture(t, func() error {
		return dispatch(o, []string{"run", "books", "MORPH author [ name title ]"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<author><name>V</name><title>X</title></author>") {
		t.Errorf("run output: %s", out)
	}
}

func TestDispatchCheck(t *testing.T) {
	o := opts(t)
	xml := tempXML(t)
	if _, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) }); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return dispatch(o, []string{"check", "books", "MORPH author [ name ]"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "information-loss report") || !strings.Contains(out, "strongly-typed") {
		t.Errorf("check output: %s", out)
	}
}

func TestDispatchRunFileWithVerify(t *testing.T) {
	o := opts(t)
	o.verify = true
	xml := tempXML(t)
	out, err := capture(t, func() error {
		return dispatch(o, []string{"run-file", xml, "MORPH title"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<title>X</title>") {
		t.Errorf("run-file output: %s", out)
	}
}

func TestDispatchInferAndExplain(t *testing.T) {
	o := opts(t)
	out, err := capture(t, func() error {
		return dispatch(o, []string{"infer", `for $a in doc("x")/author return $a/name`})
	})
	if err != nil || strings.TrimSpace(out) != "MORPH author [ name ]" {
		t.Errorf("infer = %q, err %v", out, err)
	}
	out, err = capture(t, func() error {
		return dispatch(o, []string{"explain", "MORPH author [ name ]"})
	})
	if err != nil || !strings.Contains(out, "closest") {
		t.Errorf("explain = %q, err %v", out, err)
	}
}

func TestDispatchErrors(t *testing.T) {
	o := opts(t)
	bad := [][]string{
		{"bogus"},
		{"shred", "onlyname"},
		{"shred", "x", "/no/such/file.xml"},
		{"run", "missing", "MORPH a"},
		{"shape", "missing"},
		{"run-file", "/no/such.xml", "MORPH a"},
		{"infer", "%%%"},
		{"explain", "MORPH ["},
		{"check", "x"},
	}
	for _, args := range bad {
		if _, err := capture(t, func() error { return dispatch(o, args) }); err == nil {
			t.Errorf("dispatch(%v) succeeded, want error", args)
		}
	}
}

func TestDispatchStreamAndDrop(t *testing.T) {
	o := opts(t)
	xml := tempXML(t)
	if _, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) }); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return dispatch(o, []string{"run", "books", "MORPH title"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<title>X</title>\n<title>Y</title>") {
		t.Errorf("streamed run: %q", out)
	}
	out, err = capture(t, func() error { return dispatch(o, []string{"drop", "books"}) })
	if err != nil || !strings.Contains(out, "dropped") {
		t.Errorf("drop = %q, err %v", out, err)
	}
	if _, err := capture(t, func() error { return dispatch(o, []string{"run", "books", "MORPH title"}) }); err == nil {
		t.Error("run after drop should fail")
	}
}

// TestRunIndentMatchesTransform: run streams its XML to stdout honoring
// -indent, for a streamable and a store-backed guard alike: the bytes
// equal the in-memory transform's tree serialized with the same
// indentation.
func TestRunIndentMatchesTransform(t *testing.T) {
	o := opts(t)
	xml := tempXML(t)
	if _, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) }); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"MORPH book [ title author [ name ] ]", "MORPH author [ name title ]"} {
		want, err := core.TransformString(g, sample)
		if err != nil {
			t.Fatal(err)
		}
		for _, indent := range []bool{false, true} {
			o.indent = indent
			out, err := capture(t, func() error { return dispatch(o, []string{"run", "books", g}) })
			if err != nil {
				t.Fatal(err)
			}
			if exp := want.Output.XML(indent); out != exp {
				t.Errorf("%s, -indent=%v:\n%q\nwant\n%q", g, indent, out, exp)
			}
		}
	}
}

func TestDispatchQuery(t *testing.T) {
	o := opts(t)
	xml := tempXML(t)
	if _, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) }); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return dispatch(o, []string{"query", "books",
			"MORPH author [ name title ]",
			`for $a in doc("books")//author where $a/title = "X" return string($a/name)`})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "V" {
		t.Errorf("guarded query = %q, want V", out)
	}
	if _, err := capture(t, func() error {
		return dispatch(o, []string{"query", "books", "MORPH ["})
	}); err == nil {
		t.Error("bad query usage accepted")
	}
}

func TestUsageErrorsAreTyped(t *testing.T) {
	o := opts(t)
	usageCases := [][]string{
		{"bogus"},
		{"shred", "onlyname"},
		{"check", "x"},
		{"query", "books", "MORPH a"},
		{"infer"},
		{"explain"},
	}
	for _, args := range usageCases {
		_, err := capture(t, func() error { return dispatch(o, args) })
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("dispatch(%v) = %v, want usageError", args, err)
		}
	}
	// Runtime failures must NOT be usage errors (they exit 1, not 2).
	_, err := capture(t, func() error { return dispatch(o, []string{"shape", "missing"}) })
	if err == nil {
		t.Fatal("shape missing succeeded")
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Errorf("runtime failure classified as usage error: %v", err)
	}
}

func TestExtractTrailingFlags(t *testing.T) {
	var o options
	args, err := extractTrailingFlags([]string{"run", "books", "MORPH a", "--trace", "-metrics", "--metrics-format=json"}, &o)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || args[0] != "run" || args[2] != "MORPH a" {
		t.Errorf("positionals = %v", args)
	}
	if !o.trace || !o.metrics || o.metricsFormat != "json" {
		t.Errorf("flags not extracted: %+v", o)
	}
	if _, err := extractTrailingFlags([]string{"run", "books", "--quiet"}, &o); err == nil {
		t.Error("unknown trailing flag accepted")
	}
}

func TestTraceGolden(t *testing.T) {
	o := opts(t)
	o.trace = true
	o.zeroDur = true
	var trace strings.Builder
	o.traceW = &trace
	xml := tempXML(t)
	if _, err := capture(t, func() error {
		return dispatch(o, []string{"run-file", xml, "MORPH author [ name title ]"})
	}); err != nil {
		t.Fatal(err)
	}
	got := trace.String()
	golden := filepath.Join("testdata", "trace.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCLIMatchesService shreds through the CLI, then runs the same guard
// through the CLI and through the xmorphd HTTP API over the same store
// file: the XML and the loss report must match byte for byte (Section
// VIII's examples travel both paths).
func TestCLIMatchesService(t *testing.T) {
	o := opts(t)
	o.indent = false
	xml := tempXML(t)
	if _, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) }); err != nil {
		t.Fatal(err)
	}

	guards := []string{
		"MORPH author [ name title ]",
		"MORPH title",
		"CAST MORPH book [ author [ name ] ]",
	}
	for _, g := range guards {
		cliXML, err := capture(t, func() error { return dispatch(o, []string{"run", "books", g}) })
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}

		eng, err := engine.Open(o.store, engine.WithCachePages(o.cache))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(engine.NewServer(eng, engine.ServerConfig{}).Handler())
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"doc":"books","guard":`+strconvQuote(g)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var served struct {
			XML  string `json:"xml"`
			Loss string `json:"loss"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()

		if served.XML != cliXML {
			t.Errorf("guard %q: served XML differs from CLI:\n%q\nvs\n%q", g, served.XML, cliXML)
		}
		checked, err := eng.Check(nil, "books", g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if served.Loss != checked.Loss.String() {
			t.Errorf("guard %q: served loss report differs:\n%q\nvs\n%q", g, served.Loss, checked.Loss.String())
		}
		eng.Close()
	}
}

func strconvQuote(s string) string {
	raw, _ := json.Marshal(s)
	return string(raw)
}

func TestMetricsDump(t *testing.T) {
	o := opts(t)
	o.metrics = true
	var metrics strings.Builder
	o.metricsW = &metrics
	xml := tempXML(t)
	if _, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) }); err != nil {
		t.Fatal(err)
	}
	out := metrics.String()
	for _, want := range []string{"kvstore_blocks_written", "kvstore_cache_hit_ratio", "xmorph_transforms_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}

	o.metricsFormat = "json"
	metrics.Reset()
	if _, err := capture(t, func() error { return dispatch(o, []string{"docs"}) }); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(metrics.String()), &parsed); err != nil {
		t.Errorf("metrics json does not parse: %v", err)
	}
}

func TestTracedStoredRun(t *testing.T) {
	o := opts(t)
	o.trace = true
	var trace strings.Builder
	o.traceW = &trace
	xml := tempXML(t)
	if _, err := capture(t, func() error { return dispatch(o, []string{"shred", "books", xml}) }); err != nil {
		t.Fatal(err)
	}
	trace.Reset()
	if _, err := capture(t, func() error {
		return dispatch(o, []string{"run", "books", "MORPH author [ name title ]"})
	}); err != nil {
		t.Fatal(err)
	}
	got := trace.String()
	if !strings.HasPrefix(got, "run ") {
		t.Errorf("trace root is not the run command:\n%s", got)
	}
	for _, want := range []string{"load-shape", "pages-read=", "compile", "typecheck", "loss-check", "stream", "joins=", "nodes-out="} {
		if !strings.Contains(got, want) {
			t.Errorf("stored-run trace missing %q:\n%s", want, got)
		}
	}
}
