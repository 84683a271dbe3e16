// Command xmorphbench regenerates every table and figure of the paper's
// evaluation (Section IX). Each experiment prints the same series the
// paper plots; EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	xmorphbench                  # run everything at default scale
//	xmorphbench -exp fig10       # one experiment
//	xmorphbench -exp fig14 -dblp 2000,4000,8000,16000
//	xmorphbench -factors 0.05,0.1 -exp fig10
//
// Performance of the system beyond the paper's figures is measured by the
// benchmark in benchmark/ (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"xmorph/internal/bench"
	"xmorph/internal/obs"
)

// experiments are the valid -exp values.
var experiments = []string{"table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "shred", "ablation", "all"}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", "))
	factors := flag.String("factors", "", "comma-separated XMark factors (default 0.01..0.05)")
	dblpSizes := flag.String("dblp", "", "comma-separated DBLP publication counts")
	seed := flag.Int64("seed", 42, "generator seed")
	cache := flag.Int("cache", 128, "store buffer pool pages")
	durability := flag.Bool("durability", false, "open every store with the write-ahead log enabled (crash-safe configuration)")
	workdir := flag.String("workdir", "", "directory for store files (default: temp)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	if !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "xmorphbench: unknown experiment %q; valid: %s\n", *exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}

	if *debugAddr != "" {
		// pprof registers itself on DefaultServeMux via the blank import.
		http.HandleFunc("/metrics", metricsHandler)
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "xmorphbench: debug server:", err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Seed = *seed
	cfg.CachePages = *cache
	cfg.Durability = *durability
	cfg.WorkDir = *workdir
	if *factors != "" {
		fs, err := parseFloats(*factors)
		if err != nil {
			fatal(err)
		}
		cfg.XMarkFactors = fs
	}
	if *dblpSizes != "" {
		ns, err := parseInts(*dblpSizes)
		if err != nil {
			fatal(err)
		}
		cfg.DBLPSizes = ns
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }

	if run("table1") {
		fmt.Println(bench.Table1())
	}

	needFig10 := run("fig10") || run("fig11") || run("fig12") || run("fig13") || run("shred")
	if needFig10 {
		start := time.Now()
		rows, err := bench.RunFig10(cfg)
		if err != nil {
			fatal(err)
		}
		if run("fig10") || run("shred") {
			fmt.Println(bench.Fig10Table(rows))
		}
		if run("fig11") {
			fmt.Println(bench.Fig11Table(rows))
		}
		if run("fig12") {
			fmt.Println(bench.Fig12Table(rows))
		}
		if run("fig13") {
			fmt.Println(bench.Fig13Table(rows))
		}
		fmt.Fprintf(os.Stderr, "fig10 sweep took %v\n", time.Since(start).Round(time.Millisecond))
	}

	if run("fig14") {
		rows, err := bench.RunFig14(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.Fig14Table(rows))
	}

	if run("fig15") {
		rows, err := bench.RunFig15(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.Fig15Table(rows))
	}

	if run("fig16") {
		rows, err := bench.RunFig16(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.Fig16Table(rows))
	}

	if run("ablation") {
		rows, err := bench.RunAblations(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.AblationTable(rows))
	}
}

// metricsHandler serves the default registry snapshot: text by default,
// JSON with ?format=json.
func metricsHandler(w http.ResponseWriter, r *http.Request) {
	snap := obs.Default.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		raw, err := snap.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, snap.Text())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmorphbench:", err)
	os.Exit(1)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad factor %q", p)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
