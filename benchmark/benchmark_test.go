package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"xmorph/internal/core"
	"xmorph/internal/plan"
	"xmorph/internal/shape"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesSpec pins BENCHMARK.json to the tables in spec.go.
func TestContractMatchesSpec(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, spec.go %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

// TestPlannerVerdicts holds the verdicts the mix is built on: invert is
// store-backed (the join-backed renderer serves it), the rest stream.
func TestPlannerVerdicts(t *testing.T) {
	sh := shape.FromDocument(generate(0.005, 1).tree)
	for class, g := range mixGuards {
		checked, err := core.Check(g, sh, nil)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		d := plan.Classify(checked.Plan.ComposedTarget())
		if d.Streamable != streamClasses[class] {
			t.Errorf("%s: planner says streamable=%v (%s), the mix assumes %v", class, d.Streamable, d, streamClasses[class])
		}
	}
}

// TestSmoke runs all four workloads in both modes at the -smoke scale
// (sf 0.005 documents, 2 s and 1 s windows) and checks what the workloads are
// for: no failed operation, every contracted metric present and finite,
// and the separations between workloads.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for i := range workloads {
		spec := &workloads[i]
		// The four run side by side to keep the test short; what is
		// asserted are counts and ratios, not times.
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			smokeWorkload(t, c, spec)
		})
	}
}

func smokeWorkload(t *testing.T, c contract, spec *workloadSpec) {
	workdir, outDir := t.TempDir(), t.TempDir()
	e2e, err := runEndToEnd(spec, smokeScale, 1, 2, workdir)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(spec, smokeScale, 1, 1, workdir, outDir)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	for _, run := range []*runResult{e2e, traced} {
		if run.Failed != 0 || !run.Correct || run.Attempted == 0 {
			t.Errorf("traced=%v: attempted %d, failed %d, correct %v: %v", run.Traced, run.Attempted, run.Failed, run.Correct, run.Errors)
		}
	}
	for _, d := range c.EndToEnd {
		if v, ok := e2e.Metrics[d.Name]; !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
			t.Errorf("end-to-end metric %s = %v (present %v)", d.Name, v.Value, ok)
		}
	}
	for _, d := range c.PerLayer {
		if v, ok := traced.Metrics[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v.Value, ok)
		}
	}
	if _, err := os.Stat(outDir + "/trace-" + spec.name + ".json"); err != nil {
		t.Errorf("no span file: %v", err)
	}

	m := func(name string) float64 { return traced.Metrics[name].Value }
	switch spec.name {
	case "read-hot":
		if r := m("engine.guard_cache_hit_ratio"); r < 0.90 || r > 0.99 {
			t.Errorf("guard cache hit ratio %.3f, want within [0.90, 0.99] (fresh guards miss, the rest hit)", r)
		}
		if r := m("kvstore.pool_hit_ratio"); r <= 0.99 {
			t.Errorf("pool hit ratio %.3f, want > 0.99", r)
		}
	case "read-cold":
		if r := m("kvstore.pool_hit_ratio"); r >= 0.9 {
			t.Errorf("pool hit ratio %.3f, want < 0.9", r)
		}
	}
	if u := m("trace.unattributed_pct"); math.Abs(u) >= 25 {
		t.Errorf("%.1f%% of facade time unattributed, want < 25 at smoke scale", u)
	}
}
