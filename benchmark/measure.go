package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number; N is the sample count behind a timing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is one workload run in one mode (end-to-end or traced).
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Inputs describes the generated data, for the common header.
	Inputs inputInfo `json:"inputs"`
	// Errors holds the first few failure messages.
	Errors []string           `json:"errors,omitempty"`
	Detail map[string]float64 `json:"detail,omitempty"`
	// YardstickMs is the median yardstick reading of an end-to-end run
	// (yardstick.go): the speed the host ran at.
	YardstickMs float64 `json:"yardstick_ms,omitempty"`
	WallSeconds float64 `json:"wall_s"`
}

// inputInfo sizes the documents and pool of a run.
type inputInfo struct {
	MainBytes int   `json:"main_doc_bytes"`
	MainNodes int   `json:"main_doc_nodes"`
	MainPages int64 `json:"main_doc_pages"`
	PostBytes int   `json:"post_doc_bytes"`
	PostNodes int   `json:"post_doc_nodes"`
	PoolPages int   `json:"pool_pages"`
	Clients   int   `json:"clients"`
}

func (f *fixture) inputInfo() inputInfo {
	info := inputInfo{
		MainBytes: len(f.in.main.xml), MainNodes: f.in.main.tree.Size(), MainPages: f.mainPages,
		PoolPages: f.pool, Clients: f.clients,
	}
	if len(f.in.pool) > 0 {
		info.PostBytes, info.PostNodes = len(f.in.pool[0].xml), f.in.pool[0].tree.Size()
	}
	return info
}

func (r *runResult) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// reporter returns the function a run records its metrics with: it takes
// the unit from defs and refuses a name defs does not list.
func reporter(defs []metricDef, into map[string]metric) func(name string, v float64, n int) {
	return func(name string, v float64, n int) {
		for _, d := range defs {
			if d.Name == name {
				into[name] = metric{Value: v, Unit: d.Unit, N: n}
				return
			}
		}
		panic("metric " + name + " is not in the contract")
	}
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile of v (0 when empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS starts the high-water mark afresh, so a run that follows
// others in one process (-workload all) reports its own peak: memory the
// earlier runs left is returned first, then the kernel's mark is cleared
// (best effort; where that is refused the mark stays cumulative).
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// tally counts every measured operation; a failed one adds to failed and
// contributes no latency.
func (r *runResult) tally(phases []phaseResult) {
	for _, ph := range phases {
		for _, sm := range ph.samples {
			r.Attempted++
			if sm.err != nil {
				r.Failed++
				r.fail(sm.err)
			}
		}
	}
}

// windowStats condenses measured phases into the numbers that come from
// requests: latencies in ms of the successful ones, by class where a
// metric wants one class, and the complete cycles behind the rates.
type windowStats struct {
	query, ttfb, stream []float64
	byClass             map[string][]float64
	queryDuringWrite    []float64
	decks               []float64
	shred, shredMBps    []float64
	patch, patchCycles  []float64
	refused             int
}

func condense(phases []phaseResult) windowStats {
	w := windowStats{byClass: map[string][]float64{}}
	for _, ph := range phases {
		for _, d := range ph.decks {
			w.decks = append(w.decks, ms(d))
		}
		for _, d := range ph.patchCycles {
			w.patchCycles = append(w.patchCycles, ms(d))
		}
		for _, sm := range ph.samples {
			if sm.status == 429 {
				w.refused++
			}
			if sm.err != nil {
				continue
			}
			switch {
			case sm.kind == phaseQuery:
				l := ms(sm.latency)
				w.query = append(w.query, l)
				w.ttfb = append(w.ttfb, ms(sm.ttfb))
				w.byClass[sm.class] = append(w.byClass[sm.class], l)
				if streamClasses[sm.class] {
					w.stream = append(w.stream, l)
				}
				if sm.duringWrite {
					w.queryDuringWrite = append(w.queryDuringWrite, l)
				}
			case sm.kind == phaseShred:
				w.shred = append(w.shred, ms(sm.latency))
				w.shredMBps = append(w.shredMBps, float64(sm.bytes)/1e6/sm.latency.Seconds())
			case sm.class == "patch":
				w.patch = append(w.patch, ms(sm.latency))
			}
		}
	}
	return w
}

// runEndToEnd is a --trace 0 run: three set-ups (setup_s is their
// median), a discarded warm-up of the main traffic, the measured window
// from one closed-loop client, and the post-run check.
func runEndToEnd(spec *workloadSpec, sc scale, seed int64, seconds float64, workdir string) (*runResult, error) {
	begin := time.Now()
	resetPeakRSS()
	f, setupS, err := setUpMedian(spec, sc, seed, workdir, 3)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(f.dir)
	defer f.close()
	res := &runResult{Workload: spec.name, Seed: seed, Correct: true, Inputs: f.inputInfo()}

	f.runSerial(spec.main, warmUp(seconds))
	var phases []phaseResult
	for _, ph := range spec.window {
		// Each phase starts from a collected heap: what the collector's
		// pacing inherited from the phase before (a shred's buffers, say)
		// otherwise decides how often it runs during this one.
		runtime.GC()
		phases = append(phases, f.runSerial(ph.kind, seconds2dur(seconds*ph.share)))
	}
	res.tally(phases)
	w := condense(phases)
	res.YardstickMs = f.yard.medianMs()

	if err := f.postCheck(); err != nil {
		res.fail(fmt.Errorf("post-run check: %w", err))
	}

	m := map[string]metric{}
	put := reporter(endToEnd, m)
	put("setup_s", setupS, 3)
	put("query_per_s", 1000*float64(len(mixDeck))/median(w.decks), len(w.query))
	put("query_ms_p50", median(w.query), len(w.query))
	put("query_ttfb_ms_p50", median(w.ttfb), len(w.ttfb))
	put("query_stream_ms_p50", median(w.stream), len(w.stream))
	put("query_join_ms_p50", median(w.byClass[clInvert]), len(w.byClass[clInvert]))
	put("query_identity_ms_p50", median(w.byClass[clIdentity]), len(w.byClass[clIdentity]))
	put("query_logical_ms_p50", median(w.byClass[clLogical]), len(w.byClass[clLogical]))
	put("shred_mb_per_s", median(w.shredMBps), len(w.shredMBps))
	put("shred_ms_p50", median(w.shred), len(w.shred))
	put("patch_per_s", 1000*float64(len(patchCycle))/median(w.patchCycles), len(w.patch))
	put("patch_ms_p50", median(w.patch), len(w.patch))
	put("peak_rss_mb", peakRSSMB(), 0)
	res.Metrics = m
	for _, d := range endToEnd {
		if v := m[d.Name].Value; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(fmt.Errorf("metric %s has no samples in this run (value %v)", d.Name, v))
		}
	}
	res.WallSeconds = time.Since(begin).Seconds()
	return res, nil
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmUp is a tenth of the window, at most 3 s.
func warmUp(seconds float64) time.Duration {
	return seconds2dur(math.Min(3, seconds*0.1))
}
