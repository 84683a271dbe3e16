// Benchmarks regenerating the paper's evaluation with testing.B — one
// benchmark per table/figure, plus micro-benchmarks for the hot paths.
// cmd/xmorphbench runs the same experiments as parameter sweeps with
// printed series.
package xmorph_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmorph/internal/bench"
	"xmorph/internal/closest"
	"xmorph/internal/core"
	"xmorph/internal/engine"
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
	if _, err := engine.New(st).Run(context.Background(), p.name, guard, engine.RunOpts{StreamTo: io.Discard}); err != nil {
		b.Fatal(err)
	}
}

// dump is the eXist-equivalent baseline: read the stored document in
// document order and serialize it.
func (p prepared) dump(b *testing.B) {
	b.Helper()
	st := p.open(b)
	defer st.Close()
	v := st.View()
	defer v.Close()
	d, err := v.Doc(p.name)
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
			v := st.View()
			sh, err := v.Shape(p.name)
			v.Close()
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
				p.dump(b)
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
			p.dump(b)
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
// runs, each flush one transaction through the B+tree's leaf cursor).
// Page writes are the headline metric.
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

// BenchmarkHotpathDrop measures dropping the document BenchmarkHotpathShred
// stores: collecting its records and deleting them. Only the Drop is
// timed; epochs/op counts the commits it publishes.
func BenchmarkHotpathDrop(b *testing.B) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	dir := b.TempDir()
	var epochs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := filepath.Join(dir, fmt.Sprintf("d%d.db", i))
		st, err := store.Open(path, store.WithCachePages(128))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Shred("d", strings.NewReader(xml), nil); err != nil {
			b.Fatal(err)
		}
		before := st.Stats().Epoch
		b.StartTimer()
		if err := st.Drop("d"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		epochs += st.Stats().Epoch - before
		st.Close()
		os.Remove(path)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")
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

// BenchmarkHotpathLogical measures a guarded XQuery query over a stored
// document: the people guard and the query of benchmark/'s logical class,
// through engine.Query with the guard cache warm, so the op is the pruned
// projection's emission plus the query.
func BenchmarkHotpathLogical(b *testing.B) {
	const (
		guard = "CAST MORPH person [ name emailaddress ] | TRANSLATE person -> individual"
		query = `for $p in doc("main")//individual return string($p/name)`
	)
	p := prepare(b, "main", xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}))
	st := p.open(b)
	defer st.Close()
	eng := engine.New(st)
	ctx := context.Background()
	if _, err := eng.Query(ctx, p.name, guard, query, engine.QueryOpts{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ctx, p.name, guard, query, engine.QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}

// BenchmarkHotpathStream measures the streamed read path of a selective
// and a whole-document guard (benchmark/'s bidders and identity classes)
// over a stored XMark sf 0.05 document with an 8 192-page pool, guard
// cache warm: through engine.Run into io.Discard, and as a streamed
// format "xml" request to the xmorphd handler on a loopback server.
func BenchmarkHotpathStream(b *testing.B) {
	guards := []struct{ name, guard string }{
		{"identity", "CAST MUTATE site"},
		{"bidders", "CAST MORPH open_auction [ bidder [ increase ] ]"},
	}
	p := prepare(b, "main", xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}))
	eng, err := engine.Open(p.path, engine.WithCachePages(8192))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	srv := httptest.NewServer(engine.NewServer(eng, engine.ServerConfig{TraceSample: -1}).Handler())
	defer srv.Close()
	for _, g := range guards {
		run := func() error {
			_, err := eng.Run(ctx, p.name, g.guard, engine.RunOpts{StreamTo: io.Discard})
			return err
		}
		body, _ := json.Marshal(map[string]any{"doc": p.name, "guard": g.guard, "format": "xml"})
		post := func() error {
			resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d, %v", resp.StatusCode, err)
			}
			return nil
		}
		for _, via := range []struct {
			name string
			op   func() error
		}{{"run", run}, {"http", post}} {
			b.Run(via.name+"/"+g.name, func(b *testing.B) {
				if err := via.op(); err != nil { // warm the guard cache and the pool
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := via.op(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			})
		}
	}
}

// BenchmarkHotpathPutBatch compares one sorted PutBatch against the same
// keys inserted with sequential Puts — one transaction, walking leaves
// through its cursor, against one transaction and root-to-leaf descent
// per key.
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
	b.Run("put", func(b *testing.B) { run(b, false) })
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
