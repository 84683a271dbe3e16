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
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmorph/internal/core"
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
	// Durability opens every store file with the write-ahead log enabled,
	// measuring the crash-safe configuration instead of the default.
	Durability bool
	// CachePages bounds the store's buffer pool, keeping runs I/O-bound
	// like the paper's cold-cache setup.
	CachePages int
	// MonitorInterval is the sysmon sampling period for Figs. 11-13.
	MonitorInterval time.Duration
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		XMarkFactors:    []float64{0.01, 0.02, 0.03, 0.04, 0.05},
		DBLPSizes:       []int{2000, 4000, 6000, 8000},
		Seed:            42,
		CachePages:      128,
		MonitorInterval: 20 * time.Millisecond,
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
func prepareStore(dir, name string, doc *xmltree.Document, cachePages int, durable bool) (path string, shred time.Duration, bytes int, err error) {
	xml := doc.XML(false)
	path = filepath.Join(dir, name+".db")
	os.Remove(path)
	os.Remove(path + ".wal")
	st, err := store.Open(path, store.WithCachePages(cachePages), store.WithDurability(durable))
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
func coldOpen(path string, cachePages int, durable bool) (*store.Store, error) {
	return store.Open(path, store.WithCachePages(cachePages), store.WithDurability(durable))
}

// storedRun is one measured transformation.
type storedRun struct {
	compile time.Duration
	render  time.Duration
	nodes   int
}

// transformStoredDiscard compiles and renders a guard against an open
// store, serializing the output to io.Discard (producing output XML is
// part of the measured render cost, as in the paper).
func transformStoredDiscard(st *store.Store, name, guard string) (*storedRun, error) {
	res, err := core.TransformStored(guard, st, name, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := res.Output.WriteXML(io.Discard, false); err != nil {
		return nil, err
	}
	serialize := time.Since(start)
	return &storedRun{
		compile: res.CompileTime,
		render:  res.RenderTime + serialize,
		nodes:   res.Output.Size(),
	}, nil
}

// runStored is transformStoredDiscard against a cold-opened store.
func runStored(path, name, guard string, cachePages int, durable bool) (compile, renderT time.Duration, outNodes int, err error) {
	st, err := coldOpen(path, cachePages, durable)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	r, err := transformStoredDiscard(st, name, guard)
	if err != nil {
		return 0, 0, 0, err
	}
	return r.compile, r.render, r.nodes, nil
}

// runBaseline measures the eXist-equivalent operation: read the stored
// document in document order and serialize it (the paper notes eXist's
// timing "is essentially that of reading the document from disk to a
// String object").
func runBaseline(path, name string, cachePages int, durable bool) (time.Duration, error) {
	st, err := coldOpen(path, cachePages, durable)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	start := time.Now()
	doc, err := st.Doc(name)
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
