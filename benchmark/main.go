// Command benchmark is xmorph's one benchmark: four workloads driven
// through the xmorphd HTTP surface, end-to-end metrics with tracing off,
// and a separate traced run that attributes time to the repo's layers by
// calling each layer's public functions from here. README.md explains the
// workloads and how to read the numbers; BENCHMARK.json at the repo root
// is the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// header is the common preamble of every report.
type header struct {
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Smoke       bool   `json:"smoke"`
	FlushPolicy string `json:"flush_policy"`
}

// report is benchmark/out/result.json.
type report struct {
	Header      header       `json:"header"`
	Runs        []*runResult `json:"runs"`
	WallSeconds float64      `json:"wall_s"`
}

const flushPolicy = "durability on, one Sync per acknowledged write, files under -workdir (sandbox numbers, not a device's)"

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload   = flag.String("workload", "all", "ingest, read-hot, read-cold, mixed, or all")
		seed       = flag.Int64("seed", 1, "seed of every generated input")
		seconds    = flag.Int("seconds", 10, "length of the measured window")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run (-workload all runs both)")
		workdir    = flag.String("workdir", "", "directory for store files (default: a fresh directory under .bench_build, removed at exit)")
		outDir     = flag.String("out", "", "directory for result.json and trace files (default benchmark/out)")
		smoke      = flag.Bool("smoke", false, "self-test scale: sf 0.005 documents")
		repeat     = flag.Int("repeat", 1, "run the whole set this many times")
		checkAgree = flag.Bool("check-agree", false, "with -repeat 2: fail if an end-to-end metric differs by more than its bound or an exact count differs")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	var specs []*workloadSpec
	if *workload == "all" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else if spec := workloadByName(*workload); spec != nil {
		specs = []*workloadSpec{spec}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	modes := []bool{*trace == 1}
	if *workload == "all" {
		modes = []bool{false, true}
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}

	if *outDir == "" {
		*outDir = "out"
		if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
			*outDir = filepath.Join("benchmark", "out")
		}
	}
	if *workdir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		dir, err := os.MkdirTemp(".bench_build", "work-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		*workdir = dir
	}

	hdr := header{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, Smoke: *smoke, FlushPolicy: flushPolicy,
	}
	fmt.Printf("# xmorph benchmark  cpus=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%d smoke=%v\n",
		hdr.CPUs, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Commit, hdr.Seed, hdr.Seconds, hdr.Smoke)
	fmt.Printf("# flush policy: %s\n", flushPolicy)

	begin := time.Now()
	var sets []*report
	for rep := 0; rep < *repeat; rep++ {
		rp := &report{Header: hdr}
		setBegin := time.Now()
		for _, spec := range specs {
			for _, traced := range modes {
				var res *runResult
				var err error
				if traced {
					res, err = runTraced(spec, sc, *seed, float64(*seconds), *workdir, *outDir)
				} else {
					res, err = runEndToEnd(spec, sc, *seed, float64(*seconds), *workdir)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", spec.name, err)
					return 1
				}
				printRun(res)
				rp.Runs = append(rp.Runs, res)
			}
		}
		rp.WallSeconds = time.Since(setBegin).Seconds()
		sets = append(sets, rp)
	}
	fmt.Printf("# total wall time %.1f s\n", time.Since(begin).Seconds())

	last := sets[len(sets)-1]
	if err := writeJSON(filepath.Join(*outDir, "result.json"), last); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ok := true
	if *checkAgree {
		if len(sets) != 2 {
			fmt.Fprintln(os.Stderr, "-check-agree needs -repeat 2")
			return 2
		}
		ok = agree(sets[0], sets[1])
	}

	// The last line is the result the driver reads.
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, res := range last.Runs {
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(specs) > 1 {
				name = res.Workload + "." + name
			}
			// Value and unit only: the sample count stays in result.json.
			final.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct || !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func printRun(res *runResult) {
	mode := "end-to-end, tracing off"
	if res.Traced {
		mode = "per-layer, traced"
	}
	in := res.Inputs
	fmt.Printf("\n== %s (%s)  attempted=%d failed=%d correct=%v  wall=%.1fs\n", res.Workload, mode, res.Attempted, res.Failed, res.Correct, res.WallSeconds)
	fmt.Printf("   main doc %d bytes / %d nodes / %d pages; posted docs %d bytes / %d nodes; pool %d pages; %d query clients\n",
		in.MainBytes, in.MainNodes, in.MainPages, in.PostBytes, in.PostNodes, in.PoolPages, in.Clients)
	if !res.Traced {
		fmt.Printf("   timings are at the yardstick's reference speed (%.2f ms a reading); this run's median reading was %.2f ms, so the raw timings were about %.2f times the reported ones\n",
			ms(yardstickRef), res.YardstickMs, res.YardstickMs/ms(yardstickRef))
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("   %-40s %14.4f %-6s%s\n", name, m.Value, m.Unit, n)
	}
	for _, e := range res.Errors {
		fmt.Printf("   ! %s\n", e)
	}
}
