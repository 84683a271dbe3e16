// Benchmarks regenerating the paper's evaluation with testing.B — one
// benchmark per table/figure, plus micro-benchmarks for the hot paths.
// cmd/xmorphbench runs the same experiments as parameter sweeps with
// printed series.
package xmorph_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
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
	e := xmltree.NewEncoder(io.Discard, false)
	if err := errors.Join(d.Walk(e), e.Flush()); err != nil {
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
	n := sh.NumTypes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.PathCard(i%n, (i*7+3)%n)
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
// runs, each flush one transaction through the B+tree's leaf cursor)
// into a file store: time, bytes and allocations per shred, pages
// written, bytes put in the write-ahead log, and keys landed through the
// leaf cursor. "first" shreds into an empty store, whose first commit
// logs every page; "later" shreds into a store already holding one
// document, where the records land mid-tree and the new pages skip the
// log. Only the measured shred is timed.
func BenchmarkHotpathShred(b *testing.B) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	earlier := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 7}).XML(false)
	for _, later := range []bool{false, true} {
		name := "first"
		if later {
			name = "later"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			b.SetBytes(int64(len(xml)))
			var written, logged, fastHits int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				path := filepath.Join(dir, fmt.Sprintf("s%d.db", i))
				st, err := store.Open(path, store.WithCachePages(128))
				if err != nil {
					b.Fatal(err)
				}
				if later {
					if _, err := st.Shred("earlier", strings.NewReader(earlier), nil); err != nil {
						b.Fatal(err)
					}
				}
				before := st.Stats()
				b.StartTimer()
				if _, err := st.Shred("d", strings.NewReader(xml), nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				after := st.Stats()
				written += after.BlocksWritten - before.BlocksWritten
				logged += after.WALBytes - before.WALBytes
				fastHits += after.FastPathHits - before.FastPathHits
				st.Close()
				os.Remove(path)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(written)/float64(b.N), "pages-written/op")
			b.ReportMetric(float64(logged)/float64(b.N), "wal-bytes/op")
			b.ReportMetric(float64(fastHits)/float64(b.N), "fastpath-hits/op")
		})
	}
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
		for i := range auctions {
			sink += len(g.Of(i))
		}
	}
	_ = sink
}

// BenchmarkHotpathLogical measures a guarded XQuery query over a stored
// document: the people guard and the query of benchmark/'s logical class
// (string), and the same query returning the name elements (node),
// through engine.Query with the guard cache warm, so the op is the pruned
// projection's emission plus the query.
func BenchmarkHotpathLogical(b *testing.B) {
	const guard = "CAST MORPH person [ name emailaddress ] | TRANSLATE person -> individual"
	queries := []struct{ name, query string }{
		{"string", `for $p in doc("main")//individual return string($p/name)`},
		{"node", `for $p in doc("main")//individual return $p/name`},
	}
	p := prepare(b, "main", xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}))
	st := p.open(b)
	defer st.Close()
	eng := engine.New(st)
	ctx := context.Background()
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			if _, err := eng.Query(ctx, p.name, guard, q.query, engine.QueryOpts{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(ctx, p.name, guard, q.query, engine.QueryOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}

// BenchmarkHotpathStream measures the read path of a whole-document and
// a selective guard the planner streams and of one it renders through
// closest joins (benchmark/'s identity, bidders and invert classes) over
// a stored XMark sf 0.05 document with an 8 192-page pool, guard cache
// warm: through engine.Run into io.Discard, and as a streamed format
// "xml" request to the xmorphd handler on a loopback server.
func BenchmarkHotpathStream(b *testing.B) {
	guards := []struct{ name, guard string }{
		{"identity", "CAST MUTATE site"},
		{"bidders", "CAST MORPH open_auction [ bidder [ increase ] ]"},
		{"invert", "CAST MORPH bidder [ open_auction [ itemref ] ]"},
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

// BenchmarkHotpathScan measures the storage primitive under every
// streamed query on its own: one TypeScan over each type of a stored
// XMark sf 0.05 document in turn, through one View with an 8 192-page
// pool warmed by a first pass, reporting the cost per node scanned.
func BenchmarkHotpathScan(b *testing.B) {
	p := prepare(b, "main", xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}))
	st, err := store.Open(p.path, store.WithCachePages(8192))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	v := st.View()
	defer v.Close()
	doc, err := v.Doc(p.name)
	if err != nil {
		b.Fatal(err)
	}
	scanAll := func() int {
		n := 0
		for _, t := range doc.Types() {
			sc := doc.ScanType(t)
			for sc.Next() {
				n++
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
			sc.Close()
		}
		return n
	}
	nodes := scanAll() // warms the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
}

// BenchmarkHotpathUpdate measures the two shape-keeping PATCH scripts of
// the serve benchmark's writer cycle through Engine.Update on a stored
// XMark sf 0.05 document with an 8 192-page pool: catgraph replaces the
// one category graph with as many random edges as there are categories,
// catnames replaces every category's name. bigfrag inserts one generated
// fragment of 5 001 nodes into site.open_auctions and deletes it again,
// op by op, so the document's size stays steady: an update whose cost
// grows faster than its fragment shows there. Each op commits and syncs;
// pages/op counts the pages it wrote.
func BenchmarkHotpathUpdate(b *testing.B) {
	p := prepare(b, "main", xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}))
	st, err := store.Open(p.path, store.WithCachePages(8192))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	v := st.View()
	doc, err := v.Doc(p.name)
	if err != nil {
		b.Fatal(err)
	}
	cats := len(doc.NodesOfType("site.categories.category"))
	v.Close()
	e := engine.New(st)
	for _, c := range []struct {
		name   string
		script func(rng *rand.Rand, i int) string
	}{
		{"catgraph", func(rng *rand.Rand, _ int) string {
			var sb strings.Builder
			sb.WriteString("replace site.catgraph with <catgraph>")
			for i := 0; i < cats; i++ {
				fmt.Fprintf(&sb, `<edge from="category%d" to="category%d"/>`, rng.Intn(cats), rng.Intn(cats))
			}
			sb.WriteString("</catgraph>")
			return sb.String()
		}},
		{"catnames", func(rng *rand.Rand, _ int) string {
			return fmt.Sprintf("replace site.categories.category.name with <name>lot %d</name>", rng.Intn(1000))
		}},
		{"bigfrag", func(rng *rand.Rand, i int) string {
			if i%2 == 1 {
				return "delete site.open_auctions.bigfrag"
			}
			var sb strings.Builder
			sb.WriteString("insert <bigfrag>")
			for j := 0; j < 1250; j++ {
				fmt.Fprintf(&sb, `<lot n="%d"><bid>%d</bid><note>lot %d</note></lot>`, j, rng.Intn(1000), j)
			}
			sb.WriteString("</bigfrag> into site.open_auctions")
			return sb.String()
		}},
	} {
		// A ring of scripts drawn up front keeps their building untimed.
		rng := rand.New(rand.NewSource(7))
		ring := make([]string, 8)
		for i := range ring {
			ring[i] = c.script(rng, i)
		}
		b.Run(c.name, func(b *testing.B) {
			var pages int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				info, err := e.Update(context.Background(), p.name, ring[i%len(ring)], nil)
				if err != nil {
					b.Fatal(err)
				}
				pages += info.PagesWritten
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkHotpathEncode serializes XMark sf 0.05 to io.Discard with
// WriteXML: the encoder alone, without the scans that feed it in a
// stored Run.
func BenchmarkHotpathEncode(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42})
	b.SetBytes(int64(len(doc.XML(false))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := doc.WriteXML(io.Discard, false); err != nil {
			b.Fatal(err)
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

// compileGuards are BenchmarkHotpathCompile's cases: the identity
// transformation, whose loss check compares every ordered pair of the
// shape's 244 types, and a template of benchmark/'s fresh class, a guard
// the guard cache has never seen and which names three types.
var compileGuards = []struct{ name, guard string }{
	{"mutate-site", "CAST MUTATE site"},
	{"fresh", "CAST MORPH person [ emailaddress name ] | TRANSLATE person -> v1x0"},
}

// TestCompileAllocs bounds the allocations of BenchmarkHotpathCompile's
// cases. Before the shape numbered its types and the loss check walked
// them as integers they took 1 969 (mutate-site) and 1 199 (fresh); they
// take 1 088 and 310.
func TestCompileAllocs(t *testing.T) {
	sh := shape.FromDocument(xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}))
	bounds := map[string]float64{"mutate-site": 1200, "fresh": 360}
	for _, g := range compileGuards {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := core.Check(g.guard, sh, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", g.name, allocs)
		if allocs > bounds[g.name] {
			t.Errorf("%s: compile made %.0f allocations, want at most %.0f", g.name, allocs, bounds[g.name])
		}
	}
}

// BenchmarkHotpathCompile measures core.Check — parse, compile and loss
// check, what a guard-cache miss costs before any data is read — on the
// adorned shape of XMark sf 0.05.
func BenchmarkHotpathCompile(b *testing.B) {
	sh := shape.FromDocument(xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}))
	for _, g := range compileGuards {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Check(g.guard, sh, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}
