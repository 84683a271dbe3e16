package main

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"xmorph/internal/obs"
)

func TestParseFloats(t *testing.T) {
	fs, err := parseFloats("0.1, 0.2,0.5")
	if err != nil || len(fs) != 3 || fs[2] != 0.5 {
		t.Errorf("parseFloats = %v, %v", fs, err)
	}
	if _, err := parseFloats("a,b"); err == nil {
		t.Error("bad floats accepted")
	}
}

func TestParseInts(t *testing.T) {
	ns, err := parseInts("100, 200")
	if err != nil || len(ns) != 2 || ns[1] != 200 {
		t.Errorf("parseInts = %v, %v", ns, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("bad ints accepted")
	}
}

func TestMetricsHandler(t *testing.T) {
	obs.Default.Counter("bench_test_hits").Add(7)

	rec := httptest.NewRecorder()
	metricsHandler(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "bench_test_hits 7") {
		t.Errorf("text metrics missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	metricsHandler(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var parsed map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
		t.Errorf("metrics json does not parse: %v", err)
	}
}

// TestUnknownExperimentIsUsageError: an -exp value the tool does not know
// (a retired harness name, a typo) must not look like a successful empty
// run — exit 2 with the valid names on stderr, nothing on stdout. The
// test re-executes its own binary as xmorphbench.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	if exp := os.Getenv("XMORPHBENCH_TEST_EXP"); exp != "" {
		os.Args = []string{"xmorphbench", "-exp", exp}
		main()
		os.Exit(0)
	}
	for _, exp := range []string{"nosuch", "hotpath", "ablation"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentIsUsageError$")
		cmd.Env = append(os.Environ(), "XMORPHBENCH_TEST_EXP="+exp)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-exp %s: err = %v, want exit status 2", exp, err)
		}
		if !strings.Contains(stderr.String(), exp) || !strings.Contains(stderr.String(), "fig10") {
			t.Errorf("-exp %s: stderr does not name the value and the valid experiments: %q", exp, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s: printed to stdout: %q", exp, stdout.String())
		}
	}
}
