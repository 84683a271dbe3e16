// Package bench regenerates the paper's evaluation (Section IX): one
// function per table/figure, each returning printable rows with the same
// series the paper plots. cmd/xmorphbench and the repository's testing.B
// benchmarks both drive these functions.
//
// Sizes are scaled down from the paper's testbed (hundreds of MB on 2007
// hardware) so a full sweep finishes in minutes; every Config field can be
// raised to the paper's original scale. What is expected to reproduce is
// the *shape* of each result — linear render cost, negligible compile
// cost, steady I/O, flat per-operation cost — not absolute milliseconds.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmorph/internal/engine"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// Config scales the whole suite.
type Config struct {
	// WorkDir holds the store files; empty means a temp dir.
	WorkDir string
	// XMarkFactors are the Figure 10 benchmark factors. The paper uses
	// 0.1-0.5; the default is one tenth of that.
	XMarkFactors []float64
	// DBLPSizes are Figure 14 publication counts per slice.
	DBLPSizes []int
	// Seed feeds the generators.
	Seed int64
	// CachePages bounds the store's buffer pool, keeping runs I/O-bound
	// like the paper's cold-cache setup.
	CachePages int
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		XMarkFactors: []float64{0.01, 0.02, 0.03, 0.04, 0.05},
		DBLPSizes:    []int{2000, 4000, 6000, 8000},
		Seed:         42,
		CachePages:   128,
	}
}

func (c *Config) workdir() (string, func(), error) {
	if c.WorkDir != "" {
		return c.WorkDir, func() {}, os.MkdirAll(c.WorkDir, 0o755)
	}
	dir, err := os.MkdirTemp("", "xmorphbench")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// prepareStore generates a document, shreds it into a fresh store file,
// and returns the store path plus shred time and raw XML size.
func (c *Config) prepareStore(dir, name string, doc *xmltree.Document) (path string, shred time.Duration, bytes int, err error) {
	xml := doc.XML(false)
	path = filepath.Join(dir, name+".db")
	os.Remove(path)
	os.Remove(path + ".wal")
	st, err := c.coldOpen(path)
	if err != nil {
		return "", 0, 0, err
	}
	start := time.Now()
	if _, err := st.Shred(name, strings.NewReader(xml), nil); err != nil {
		st.Close()
		return "", 0, 0, err
	}
	shred = time.Since(start)
	if err := st.Close(); err != nil {
		return "", 0, 0, err
	}
	return path, shred, len(xml), nil
}

// coldOpen reopens a store with an empty buffer pool — the paper clears
// the cache before every run.
func (c *Config) coldOpen(path string) (*store.Store, error) {
	return store.Open(path, store.WithCachePages(c.CachePages))
}

// storedRun is one measured transformation.
type storedRun struct {
	compile, render time.Duration
	nodes           int
	// samples is the Figs. 11-13 timeline of a monitored run.
	samples []sample
}

// runStored cold-opens the store at path and runs guard over the document
// name through the engine, streaming the output XML to io.Discard
// (producing output XML is part of the measured render cost, as in the
// paper). With monitor set, the Figs. 11-13 sampler watches the store
// for the whole run.
func (c *Config) runStored(path, name, guard string, monitor bool) (*storedRun, error) {
	st, err := c.coldOpen(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	run := &storedRun{}
	if monitor {
		stop := startMonitor(monitorInterval, st.Stats)
		defer func() { run.samples = stop() }()
	}
	res, err := engine.New(st).Run(context.Background(), name, guard, engine.RunOpts{StreamTo: io.Discard})
	if err != nil {
		return nil, err
	}
	run.compile = res.CompileTime
	run.render = res.RenderTime
	run.nodes = res.Streamed
	return run, nil
}

// runBaseline measures the eXist-equivalent operation: read the stored
// document in document order and serialize it (the paper notes eXist's
// timing "is essentially that of reading the document from disk to a
// String object").
func (c *Config) runBaseline(path, name string) (time.Duration, error) {
	st, err := c.coldOpen(path)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	start := time.Now()
	v := st.View()
	defer v.Close()
	doc, err := v.Doc(name)
	if err != nil {
		return 0, err
	}
	re, err := doc.Reconstruct()
	if err != nil {
		return 0, err
	}
	if err := re.WriteXML(io.Discard, false); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString("## ")
	b.WriteString(t.Title)
	b.WriteString("\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
