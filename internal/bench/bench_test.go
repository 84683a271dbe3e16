package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xmorph/internal/kvstore"
)

// tinyConfig keeps unit-test runs fast; the real sweeps run from
// cmd/xmorphbench and the repository benchmarks.
func tinyConfig(t *testing.T) Config {
	return Config{
		WorkDir:      t.TempDir(),
		XMarkFactors: []float64{0.002, 0.004},
		DBLPSizes:    []int{100, 200},
		Seed:         7,
		CachePages:   64,
	}
}

func TestRunFig10ShapesHold(t *testing.T) {
	rows, err := RunFig10(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger factor => more bytes and nodes.
	if rows[1].XMLBytes <= rows[0].XMLBytes || rows[1].Nodes <= rows[0].Nodes {
		t.Errorf("sizes not increasing: %+v", rows)
	}
	for _, r := range rows {
		if r.RenderMS <= 0 || r.CompileMS <= 0 || r.BaselineMS <= 0 || r.ShredMS <= 0 {
			t.Errorf("missing timings: %+v", r)
		}
		if len(r.samples) == 0 {
			t.Errorf("no resource samples at factor %g", r.Factor)
		}
	}
	// The paper's headline: compile cost is flat in the data size (it only
	// sees the shape) while render grows. At unit-test scale render is
	// tiny, so assert flatness: doubling the data must not double compile.
	if rows[1].CompileMS > 2*rows[0].CompileMS+5 {
		t.Errorf("compile cost should be ~flat: %f -> %f ms", rows[0].CompileMS, rows[1].CompileMS)
	}
	out := Fig10Table(rows).String()
	if !strings.Contains(out, "render-ms") {
		t.Errorf("table rendering: %s", out)
	}
	for _, tbl := range []*Table{Fig11Table(rows), Fig12Table(rows), Fig13Table(rows)} {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.Title)
		}
	}
}

func TestRunFig14ShapesHold(t *testing.T) {
	rows, err := RunFig14(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(Fig14Guards) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Output grows with transformation size at a fixed slice.
	var small, large Fig14Row
	for _, r := range rows {
		if r.Publications != 200 {
			continue
		}
		switch r.Transform {
		case "small":
			small = r
		case "large":
			large = r
		}
	}
	if large.OutputNodes <= small.OutputNodes {
		t.Errorf("large transform should output more nodes: %+v vs %+v", large, small)
	}
	if !strings.Contains(Fig14Table(rows).String(), "baseline-ms") {
		t.Error("fig14 table missing baseline column")
	}
}

func TestRunFig15ShapesHold(t *testing.T) {
	cfg := tinyConfig(t)
	rows, err := RunFig15(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 3 datasets x 4 shapes", len(rows))
	}
	for _, r := range rows {
		if r.OutputElems == 0 {
			t.Errorf("%s/%s produced no output", r.Dataset, r.Shape)
		}
		if r.ElemsPerSec <= 0 {
			t.Errorf("%s/%s throughput missing", r.Dataset, r.Shape)
		}
	}
	if !strings.Contains(Fig15Table(rows).String(), "elems/sec") {
		t.Error("fig15 table missing throughput column")
	}
}

func TestRunFig16ShapesHold(t *testing.T) {
	cfg := tinyConfig(t)
	rows, err := RunFig16(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig16Ops) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OutputElems == 0 || r.RenderMS <= 0 {
			t.Errorf("op %s: %+v", r.Op, r)
		}
	}
}

func TestTable1(t *testing.T) {
	tbl := Table1()
	out := tbl.String()
	if !strings.Contains(out, "1..2") {
		t.Errorf("Table I should contain a 1..2 cardinality:\n%s", out)
	}
	if len(tbl.Rows) != 7 {
		t.Errorf("Table I rows = %d, want 7 types", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Errorf("ragged row: %v", row)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := &Table{Title: "t", Columns: []string{"a", "long-col"}, Rows: [][]string{{"xxxx", "1"}}}
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Index(lines[1], "long-col") != strings.Index(lines[2], "1") {
		t.Errorf("columns unaligned:\n%s", out)
	}
}

func TestMonitorSamplesCumulativeIO(t *testing.T) {
	db, err := kvstore.Open(filepath.Join(t.TempDir(), "m.db"), &kvstore.Options{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stop := startMonitor(2*time.Millisecond, db.Stats)
	for i := 0; i < 5000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	samples := stop()

	if len(samples) < 2 {
		t.Fatalf("samples = %d, want several", len(samples))
	}
	// Cumulative I/O must be monotone nondecreasing and end positive.
	last := int64(-1)
	for _, s := range samples {
		c := s.blocksRead + s.blocksWritten
		if c < last {
			t.Fatalf("cumulative blocks decreased: %d -> %d", last, c)
		}
		last = c
	}
	if last == 0 {
		t.Error("no block I/O recorded")
	}
	for _, s := range samples {
		if s.waitPct < 0 || s.waitPct > 100 {
			t.Errorf("wait%% out of range: %f", s.waitPct)
		}
		if s.heapSys == 0 {
			t.Error("memory not sampled")
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.XMarkFactors) == 0 || len(cfg.DBLPSizes) == 0 {
		t.Error("default config missing workloads")
	}
	for i := 1; i < len(cfg.XMarkFactors); i++ {
		if cfg.XMarkFactors[i] <= cfg.XMarkFactors[i-1] {
			t.Error("factors must increase")
		}
	}
	if cfg.CachePages <= 0 {
		t.Error("default config missing knobs")
	}
	// Temp workdir is created and cleaned.
	dir, cleanup, err := cfg.workdir()
	if err != nil || dir == "" {
		t.Fatalf("workdir: %v", err)
	}
	cleanup()
}

func TestFig16TableRendering(t *testing.T) {
	rows := []Fig16Row{{Op: "morph", CompileMS: 1, RenderMS: 2, OutputElems: 3}}
	out := Fig16Table(rows).String()
	if !strings.Contains(out, "morph") || !strings.Contains(out, "out-elems") {
		t.Errorf("fig16 table: %s", out)
	}
}
