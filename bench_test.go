// Benchmarks regenerating the paper's evaluation with testing.B — one
// benchmark per table/figure, plus micro-benchmarks for the hot paths.
// cmd/xmorphbench runs the same experiments as parameter sweeps with
// printed series.
package xmorph_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmorph/internal/bench"
	"xmorph/internal/closest"
	"xmorph/internal/core"
	"xmorph/internal/gen/dblp"
	"xmorph/internal/gen/nasa"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/kvstore"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// prepared caches one shredded store per benchmark binary run.
type prepared struct {
	path string
	name string
}

func prepare(b *testing.B, name string, doc *xmltree.Document) prepared {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, name+".db")
	st, err := store.Open(path, store.WithCachePages(256))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Shred(name, strings.NewReader(doc.XML(false)), nil); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return prepared{path: path, name: name}
}

func (p prepared) open(b *testing.B) *store.Store {
	b.Helper()
	st, err := store.Open(p.path, store.WithCachePages(256))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// transform runs one stored transformation, discarding the output XML.
func (p prepared) transform(b *testing.B, guard string) {
	b.Helper()
	st := p.open(b)
	defer st.Close()
	res, err := core.TransformStored(guard, st, p.name, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Output.WriteXML(io.Discard, false); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig10 measures the Figure 10 series: MUTATE site on XMark at
// increasing factors (render), the compile-only cost, and the
// eXist-equivalent dump baseline.
func BenchmarkFig10(b *testing.B) {
	for _, factor := range []float64{0.005, 0.01, 0.02} {
		doc := xmark.Generate(xmark.Config{Factor: factor, Seed: 42})
		p := prepare(b, fmt.Sprintf("xmark%g", factor), doc)

		b.Run(fmt.Sprintf("render/factor=%g", factor), func(b *testing.B) {
			b.ReportMetric(float64(doc.Size()), "nodes")
			for i := 0; i < b.N; i++ {
				p.transform(b, bench.Fig10Guard)
			}
		})
		b.Run(fmt.Sprintf("compile/factor=%g", factor), func(b *testing.B) {
			st := p.open(b)
			sh, err := st.Shape(p.name)
			st.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Check(bench.Fig10Guard, sh, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("baseline-dump/factor=%g", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := p.open(b)
				d, err := st.Doc(p.name)
				if err != nil {
					b.Fatal(err)
				}
				re, err := d.Reconstruct()
				if err != nil {
					b.Fatal(err)
				}
				if err := re.WriteXML(io.Discard, false); err != nil {
					b.Fatal(err)
				}
				st.Close()
			}
		})
	}
}

// BenchmarkFig11to13 measures the instrumented run behind Figs. 11-13:
// the same transformation with the resource monitor attached (its
// overhead is part of what the paper's vmstat methodology tolerates).
func BenchmarkFig11to13(b *testing.B) {
	cfg := bench.DefaultConfig()
	cfg.XMarkFactors = []float64{0.01}
	cfg.WorkDir = b.TempDir()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14 measures the three DBLP transformation sizes against the
// dump baseline.
func BenchmarkFig14(b *testing.B) {
	doc := dblp.Generate(dblp.Config{Publications: 2000, Seed: 42})
	p := prepare(b, "dblp", doc)
	for _, g := range bench.Fig14Guards {
		b.Run(g.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.transform(b, g.Guard)
			}
		})
	}
	b.Run("baseline-dump", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := p.open(b)
			d, err := st.Doc(p.name)
			if err != nil {
				b.Fatal(err)
			}
			re, err := d.Reconstruct()
			if err != nil {
				b.Fatal(err)
			}
			if err := re.WriteXML(io.Discard, false); err != nil {
				b.Fatal(err)
			}
			st.Close()
		}
	})
}

// BenchmarkFig15 measures target-shape sensitivity: deep vs bushy, small
// vs large targets over the three datasets; the per-op metric is output
// elements per second.
func BenchmarkFig15(b *testing.B) {
	type ds struct {
		name   string
		doc    *xmltree.Document
		shapes map[string]string
	}
	datasets := []ds{
		{"nasa", nasa.Generate(nasa.Config{Datasets: 200, Seed: 42}), map[string]string{
			"deep-small":  "CAST MORPH dataset [ title [ abstract [ para ] ] ]",
			"bushy-small": "CAST MORPH dataset [ title altname identifier ]",
			"bushy-large": "CAST MORPH dataset [ title altname identifier abstract [ para ] date [ year month day ] instrument [ name observatory ] ]",
		}},
		{"dblp", dblp.Generate(dblp.Config{Publications: 1500, Seed: 42}), map[string]string{
			"deep-small":  "CAST MORPH author [ title [ year [ pages ] ] ]",
			"bushy-small": "CAST MORPH article [ author title year ]",
			"bushy-large": "CAST MORPH dblp [ article [ author title year pages url volume journal ] inproceedings [ booktitle crossref ] ]",
		}},
		{"xmark", xmark.Generate(xmark.Config{Factor: 0.01, Seed: 42}), map[string]string{
			"deep-small":  "CAST MORPH open_auctions [ open_auction [ bidder [ date ] ] ]",
			"bushy-small": "CAST MORPH open_auction [ initial current quantity ]",
			"bushy-large": "CAST MORPH open_auction [ initial reserve current quantity type seller itemref interval [ start end ] ]",
		}},
	}
	for _, d := range datasets {
		p := prepare(b, d.name, d.doc)
		for shapeName, guard := range d.shapes {
			b.Run(d.name+"/"+shapeName, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.transform(b, guard)
				}
			})
		}
	}
}

// BenchmarkFig16 measures each XMorph operation composed with one fixed
// MORPH: the costs should be flat because operations compile into the
// target shape and the data is rendered once.
func BenchmarkFig16(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 42})
	p := prepare(b, "xmark16", doc)
	for _, op := range bench.Fig16Ops {
		b.Run(op.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.transform(b, op.Guard)
			}
		})
	}
}

// BenchmarkTable1 measures the path-cardinality computation behind Table I
// (and behind every information-loss check).
func BenchmarkTable1(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42})
	sh := shape.FromDocument(doc)
	types := sh.Types()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := types[i%len(types)]
		to := types[(i*7+3)%len(types)]
		sh.PathCard(from, to)
	}
}

// BenchmarkClosestJoin measures the Section VII sort-merge closest join on
// its own: pairing bidders with their auctions.
func BenchmarkClosestJoin(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42})
	auctions := doc.NodesOfType("site.open_auctions.open_auction")
	bidders := doc.NodesOfType("site.open_auctions.open_auction.bidder")
	b.ReportMetric(float64(len(auctions)), "auctions")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closest.Join(auctions, bidders)
	}
}

// BenchmarkHotpathShred measures the batched shredder (per-type sorted
// runs flushed through PutBatch, B+tree sorted-insert fast path on). Page
// writes are the headline metric.
func BenchmarkHotpathShred(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42})
	xml := doc.XML(false)
	dir := b.TempDir()
	b.SetBytes(int64(len(xml)))
	var written, fastHits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.db", i))
		st, err := store.Open(path, store.WithCachePages(128))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Shred("d", strings.NewReader(xml), nil); err != nil {
			b.Fatal(err)
		}
		stats := st.Stats()
		written += stats.BlocksWritten
		fastHits += stats.FastPathHits
		st.Close()
		os.Remove(path)
	}
	b.ReportMetric(float64(written)/float64(b.N), "pages-written/op")
	b.ReportMetric(float64(fastHits)/float64(b.N), "fastpath-hits/op")
}

// BenchmarkHotpathParse measures xmltree.Parse — Scan into a Builder —
// on the document BenchmarkHotpathShred stores.
func BenchmarkHotpathParse(b *testing.B) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	b.SetBytes(int64(len(xml)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(xml); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathCachedJoin measures the CSR grouped join cache: build
// the grouping once, then look up every parent's partners. Allocs/op is
// the headline — the CSR layout allocates a couple of slices however many
// parents there are.
func BenchmarkHotpathCachedJoin(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42})
	auctions := doc.NodesOfType("site.open_auctions.open_auction")
	bidders := doc.NodesOfType("site.open_auctions.open_auction.bidder")
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		g := closest.GroupJoin(auctions, bidders, nil)
		for _, a := range auctions {
			sink += len(g.Of(a))
		}
	}
	_ = sink
}

// BenchmarkHotpathPutBatch compares one sorted PutBatch against the same
// keys inserted with sequential Puts — isolating the kvstore layer of the
// hot-path overhaul.
func BenchmarkHotpathPutBatch(b *testing.B) {
	const n = 20000
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		vals[i] = []byte(fmt.Sprintf("val-%d", i))
	}
	run := func(b *testing.B, batch bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := kvstore.OpenMemory(&kvstore.Options{CachePages: 1 << 16})
			if batch {
				if err := db.PutBatch(keys, vals); err != nil {
					b.Fatal(err)
				}
			} else {
				for j := range keys {
					if err := db.Put(keys[j], vals[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
			db.Close()
		}
	}
	b.Run("putbatch", func(b *testing.B) { run(b, true) })
	b.Run("put-fastpath", func(b *testing.B) { run(b, false) })
}

// BenchmarkShred measures the streaming shredder (the paper reports shred
// cost separately from transformation cost).
func BenchmarkShred(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42})
	xml := doc.XML(false)
	dir := b.TempDir()
	b.SetBytes(int64(len(xml)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.db", i))
		st, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Shred("d", strings.NewReader(xml), nil); err != nil {
			b.Fatal(err)
		}
		st.Close()
		os.Remove(path)
	}
}
