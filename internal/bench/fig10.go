package bench

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/kvstore"
)

// Fig10Row is one XMark factor's measurements: the three plotted series
// (XMorph render, XMorph compile, eXist-equivalent dump) plus the shred
// cost the paper reports in prose.
type Fig10Row struct {
	Factor     float64
	XMLBytes   int
	Nodes      int
	Types      int
	ShredMS    float64
	CompileMS  float64
	RenderMS   float64
	BaselineMS float64
	// samples is the resource timeline of the render run (Figs. 11-13).
	samples []sample
}

// Fig10Guard is the transformation the paper evaluates: mutate the entire
// document (all types).
const Fig10Guard = "CAST MUTATE site"

// fig10Runs is how many times RunFig10 times each (factor, column)
// cell. It reports the median: one timing swings nearly 2× from run to
// run on a small host.
const fig10Runs = 5

// RunFig10 measures transformation cost versus data size on XMark
// documents, also collecting the resource timelines behind Figs. 11-13.
// Each factor is shredded, transformed and dumped fig10Runs times, every
// time into a fresh store; a row holds each column's median and the last
// run's timeline.
func RunFig10(cfg Config) ([]Fig10Row, error) {
	dir, cleanup, err := cfg.workdir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rows []Fig10Row
	for _, f := range cfg.XMarkFactors {
		doc := xmark.Generate(xmark.Config{Factor: f, Seed: cfg.Seed})
		name := fmt.Sprintf("xmark-%g", f)
		row := Fig10Row{Factor: f, Nodes: doc.Size(), Types: len(doc.Types())}
		var shred, compile, render, baseline [fig10Runs]time.Duration
		for i := range fig10Runs {
			path, d, bytes, err := cfg.prepareStore(dir, name, doc)
			if err != nil {
				return nil, err
			}
			run, err := cfg.runStored(path, name, Fig10Guard, true)
			if err != nil {
				return nil, err
			}
			base, err := cfg.runBaseline(path, name)
			if err != nil {
				return nil, err
			}
			shred[i], compile[i], render[i], baseline[i] = d, run.compile, run.render, base
			row.XMLBytes, row.samples = bytes, run.samples
		}
		row.ShredMS, row.CompileMS = medianMS(shred[:]), medianMS(compile[:])
		row.RenderMS, row.BaselineMS = medianMS(render[:]), medianMS(baseline[:])
		rows = append(rows, row)
	}
	return rows, nil
}

// medianMS returns the median of ds in milliseconds, sorting ds.
func medianMS(ds []time.Duration) float64 {
	slices.Sort(ds)
	return ms(ds[len(ds)/2])
}

// monitorInterval is the sampling period of the Figs. 11-13 timelines.
const monitorInterval = 20 * time.Millisecond

// sample is one point on a run's resource timeline — the in-process
// stand-in for the paper's vmstat methodology (Section IX).
type sample struct {
	elapsed time.Duration
	// blocksRead and blocksWritten are the pager's cumulative page I/O.
	blocksRead, blocksWritten int64
	// waitPct is the share (0-100) of the sampling interval spent inside
	// file reads and writes — the vmstat "wa" analogue.
	waitPct float64
	// heapAlloc is live heap bytes; heapSys is heap obtained from the OS.
	heapAlloc, heapSys uint64
}

// startMonitor samples stats and runtime.MemStats every interval until
// the returned stop is called; stop takes a final sample and returns the
// timeline.
func startMonitor(interval time.Duration, stats func() kvstore.Stats) (stop func() []sample) {
	quit, done := make(chan struct{}), make(chan []sample)
	go func() {
		start := time.Now()
		last, lastIO := start, int64(0)
		var samples []sample
		take := func() {
			st := stats()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			now := time.Now()
			wait := 0.0
			if wall := now.Sub(last); wall > 0 {
				wait = min(max(100*float64(st.IONanos-lastIO)/float64(wall), 0), 100)
			}
			last, lastIO = now, st.IONanos
			samples = append(samples, sample{now.Sub(start), st.BlocksRead, st.BlocksWritten, wait, mem.HeapAlloc, mem.HeapSys})
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				take()
				done <- samples
				return
			case <-tick.C:
				take()
			}
		}
	}()
	return func() []sample {
		close(quit)
		return <-done
	}
}

// Fig10Table renders the Figure 10 series.
func Fig10Table(rows []Fig10Row) *Table {
	t := &Table{
		Title:   "Fig 10: transformation cost vs data size (XMark, MUTATE site)",
		Columns: []string{"factor", "xml-MB", "nodes", "types", "shred-ms", "compile-ms", "render-ms", "baseline-ms"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", r.Factor),
			f2(float64(r.XMLBytes) / (1 << 20)),
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Types),
			f1(r.ShredMS),
			f2(r.CompileMS),
			f1(r.RenderMS),
			f1(r.BaselineMS),
		})
	}
	return t
}

// Fig11Table renders cumulative block I/O over each run's timeline.
func Fig11Table(rows []Fig10Row) *Table {
	t := &Table{
		Title:   "Fig 11: cumulative block I/O during the transformation",
		Columns: []string{"factor", "elapsed-ms", "blocks-in", "blocks-out", "cumulative"},
	}
	for _, r := range rows {
		for _, s := range r.samples {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%g", r.Factor),
				fmt.Sprint(s.elapsed.Milliseconds()),
				fmt.Sprint(s.blocksRead),
				fmt.Sprint(s.blocksWritten),
				fmt.Sprint(s.blocksRead + s.blocksWritten),
			})
		}
	}
	return t
}

// Fig12Table renders the I/O wait percentage timeline.
func Fig12Table(rows []Fig10Row) *Table {
	t := &Table{
		Title:   "Fig 12: CPU wait percentage (time inside block I/O)",
		Columns: []string{"factor", "elapsed-ms", "wait-pct"},
	}
	for _, r := range rows {
		for _, s := range r.samples {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%g", r.Factor),
				fmt.Sprint(s.elapsed.Milliseconds()),
				f1(s.waitPct),
			})
		}
	}
	return t
}

// Fig13Table renders the memory timeline.
func Fig13Table(rows []Fig10Row) *Table {
	t := &Table{
		Title:   "Fig 13: memory during the transformation",
		Columns: []string{"factor", "elapsed-ms", "heap-alloc-MB", "heap-sys-MB"},
	}
	for _, r := range rows {
		for _, s := range r.samples {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%g", r.Factor),
				fmt.Sprint(s.elapsed.Milliseconds()),
				f1(float64(s.heapAlloc) / (1 << 20)),
				f1(float64(s.heapSys) / (1 << 20)),
			})
		}
	}
	return t
}
