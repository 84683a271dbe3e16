package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/xmltree"
)

// TestMultiChunkValueReassembly is the regression test for the chunk
// reassembly rewrite: values spanning three and more chunks (> 2×
// chunkSize) must round-trip exactly, including non-repeating content
// whose misordering or truncation a repeat pattern would hide.
func TestMultiChunkValueReassembly(t *testing.T) {
	// Distinct bytes per position so any chunk mixup is detected.
	var b strings.Builder
	for i := 0; b.Len() < 3*chunkSize+17; i++ { // > 3 chunks, odd tail
		b.WriteString("segment-")
		b.WriteByte(byte('a' + i%26))
		b.WriteString("-")
		b.WriteByte(byte('0' + i%10))
		b.WriteString("|")
	}
	for _, extra := range []int{0, 1, chunkSize - 1, chunkSize} {
		val := b.String() + strings.Repeat("#", extra)
		s := OpenMemory()
		src := "<doc><a>pre</a><body>" + val + "</body><z>post</z></doc>"
		if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
			t.Fatal(err)
		}
		doc, err := s.Doc("d")
		if err != nil {
			t.Fatal(err)
		}
		got := doc.NodesOfType("doc.body")
		if len(got) != 1 {
			t.Fatalf("extra %d: %d body nodes", extra, len(got))
		}
		if got[0].Value != val {
			t.Errorf("extra %d: value corrupted: len=%d want %d", extra, len(got[0].Value), len(val))
		}
		// Neighbours must be unaffected by the multi-chunk middle.
		if as := doc.NodesOfType("doc.a"); len(as) != 1 || as[0].Value != "pre" {
			t.Errorf("extra %d: sibling before corrupted", extra)
		}
		if zs := doc.NodesOfType("doc.z"); len(zs) != 1 || zs[0].Value != "post" {
			t.Errorf("extra %d: sibling after corrupted", extra)
		}
		s.Close()
	}
}

// TestMultipleMultiChunkSiblings: consecutive nodes of one type, each
// spanning several chunks, must not bleed into each other.
func TestMultipleMultiChunkSiblings(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	v1 := strings.Repeat("alpha ", 800) // ~4.8 KB, 4 chunks
	v2 := strings.Repeat("beta ", 900)  // ~4.5 KB, 4 chunks
	v3 := "tiny"
	src := "<doc><p>" + v1 + "</p><p>" + v2 + "</p><p>" + v3 + "</p></doc>"
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	ps := doc.NodesOfType("doc.p")
	if len(ps) != 3 {
		t.Fatalf("%d p nodes", len(ps))
	}
	for i, want := range []string{v1, v2, v3} {
		if ps[i].Value != want {
			t.Errorf("p[%d] corrupted: len=%d want %d", i, len(ps[i].Value), len(want))
		}
	}
}

// TestSizeCountsWithoutCaching: a Walk must count every vertex once,
// however many chunks its value spans, without materializing or caching
// any type sequence.
func TestSizeCountsWithoutCaching(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	big := strings.Repeat("x", 3*chunkSize) // multi-chunk: extra keys, one node
	src := `<data><book id="1"><title>` + big + `</title></book><book id="2"><title>t</title></book></data>`
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	// data, 2×book, 2×@id, 2×title = 7 vertices.
	if got, err := walkSize(doc); got != 7 || err != nil {
		t.Errorf("Walk counted %d nodes (err %v), want 7", got, err)
	}
	doc.mu.Lock()
	cached := len(doc.seqs)
	doc.mu.Unlock()
	if cached != 0 {
		t.Errorf("Walk materialized %d type sequences", cached)
	}
	// And it must agree with full materialization.
	n := 0
	for _, typ := range doc.Types() {
		n += len(doc.NodesOfType(typ))
	}
	if got, _ := walkSize(doc); got != n {
		t.Errorf("Walk counted %d nodes, materialized count = %d", got, n)
	}
}

// TestBatchedShredRoundTripsParse: the batched per-type runs, including a
// value that spans several chunks, must leave behind exactly the document
// the parser sees in the source — same node count, same reconstruction.
func TestBatchedShredRoundTripsParse(t *testing.T) {
	big := strings.Repeat("chunked-value ", 400)
	src := `<site><regions><europe><item id="i1"><name>` + big + `</name></item>` +
		`<item id="i2"><name>n2</name></item></europe></regions>` +
		`<people><person id="p1"><name>ann</name></person></people></site>`
	want, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}

	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := walkSize(doc); n != want.Size() || err != nil {
		t.Fatalf("sizes differ: stored %d (err %v), parsed %d", n, err, want.Size())
	}
	got, err := doc.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got.XML(false) != want.XML(false) {
		t.Errorf("reconstruction differs from the parsed source:\nstored: %s\nparsed: %s", got.XML(false), want.XML(false))
	}
	if s.Stats().Puts == 0 {
		t.Error("shred issued no batched puts")
	}
}

// TestShredFlushThreshold: a document bigger than the flush threshold
// forces mid-parse flushes; later runs of one type must append cleanly
// after earlier flushed runs.
func TestShredFlushThreshold(t *testing.T) {
	var b strings.Builder
	b.WriteString("<doc>")
	const items = 600
	filler := strings.Repeat("y", 2500) // ~1.5 MB total, over shredFlushBytes
	for i := 0; i < items; i++ {
		b.WriteString("<item><name>n</name><desc>")
		b.WriteString(filler)
		b.WriteString("</desc></item>")
	}
	b.WriteString("</doc>")
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(b.String()), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.NodesOfType("doc.item")); got != items {
		t.Errorf("%d items, want %d", got, items)
	}
	descs := doc.NodesOfType("doc.item.desc")
	if len(descs) != items {
		t.Fatalf("%d descs, want %d", len(descs), items)
	}
	for i, d := range descs {
		if d.Value != filler {
			t.Fatalf("desc %d corrupted (len %d)", i, len(d.Value))
		}
	}
}

// TestFailedShredLeavesNoRecords: a shred that fails after its runs began
// to flush — here a ~1.5 MB body with its last end tag cut off, as a
// client disconnect leaves it — must remove what it flushed: the records
// sit under an id no registry entry names, so nothing else ever would.
func TestFailedShredLeavesNoRecords(t *testing.T) {
	var b strings.Builder
	b.WriteString("<doc>")
	filler := strings.Repeat("y", 2500)
	for i := 0; i < 600; i++ { // ~1.5 MB, over shredFlushBytes
		b.WriteString("<item><name>n</name><desc>" + filler + "</desc></item>")
	}
	good := b.String() + "</doc>"

	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(b.String()), nil); err == nil {
		t.Fatal("truncated document shredded")
	}
	if s.Stats().Puts == 0 {
		t.Fatal("the failed shred flushed nothing: the test does not reach the leak")
	}
	for _, table := range []byte{'N', 'A', 'T', 'H', 'D'} {
		n := 0
		if err := s.db.AscendPrefix([]byte{table}, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("failed shred left %d records under %q", n, table)
		}
	}

	if _, err := s.Shred("d", strings.NewReader(good), nil); err != nil {
		t.Fatalf("good shred of the same name after the failed one: %v", err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	re, err := doc.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if re.XML(false) != good {
		t.Error("reconstruction differs from the shredded document")
	}
}

// TestShredEpochs: a shred commits its document-ID counter, one
// transaction per flush of its type runs, and one for its tail — so the
// XMark sf 0.02 document publishes at most flushes + 2 epochs, where a
// flush commits at least shredFlushBytes of buffered records, except the
// last.
func TestShredEpochs(t *testing.T) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	s := OpenMemory()
	defer s.Close()
	before := s.Stats().Epoch
	if _, err := s.Shred("d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	epochs := s.Stats().Epoch - before
	buffered := 0 // an upper bound: chunk keys and headers count too
	if err := s.db.AscendPrefix([]byte{'N'}, func(k, v []byte) bool {
		buffered += len(k) + len(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	flushes := int64(1 + buffered/shredFlushBytes)
	t.Logf("%d epochs, at most %d flushes", epochs, flushes)
	if epochs > flushes+2 {
		t.Errorf("shred published %d epochs, want at most %d flushes + 2", epochs, flushes)
	}
}

// TestShredAllocsPerNode guards the ingest path end to end on the XMark
// sf 0.02 document: tokenizing, shredding and the PutBatch flushes make
// 0.26 allocations per shredded node, the bound is that plus a quarter.
// The handler borrowing each value from the scanner's buffer, where it
// got a string of its own, took it from 0.9.
func TestShredAllocsPerNode(t *testing.T) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	var nodes int
	allocs := testing.AllocsPerRun(1, func() {
		info, err := OpenMemory().Shred("d", strings.NewReader(xml), nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = info.Nodes
	})
	perNode := allocs / float64(nodes)
	t.Logf("%d nodes, %.0f allocations, %.3f per node", nodes, allocs, perNode)
	if perNode > 0.325 {
		t.Errorf("shred: %.3f allocations per node, want <= 0.325", perNode)
	}
}

// TestShredBytesPerInputByte guards the bytes the ingest path allocates,
// which TestShredAllocsPerNode, counting allocations, cannot see: the
// XMark sf 0.02 document (824 027 bytes) shredded into memory. When
// every record was copied into per-type slices, again into Apply's
// arena, and every page into a fresh eviction copy, that took 22.9 MB,
// 27.8 bytes per input byte (commit 52a7ab3); with one copy per record
// it takes 10.9 MB, 13.2 per byte. The bound is half the former.
func TestShredBytesPerInputByte(t *testing.T) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := OpenMemory().Shred("d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(xml))
	t.Logf("%d input bytes, %.1f MB allocated, %.2f per input byte",
		len(xml), float64(after.TotalAlloc-before.TotalAlloc)/1e6, perByte)
	if perByte > 27.77/2 {
		t.Errorf("shred: %.2f bytes allocated per input byte, want <= %.2f", perByte, 27.77/2)
	}
}

// TestShredTreeLayoutPinned pins the B+tree a shred builds, which
// TestStoredBytesPinned, looking at keys and values only, cannot see:
// XMark sf 0.02 seed 42 shredded into a 128-page file store writes 413
// pages, lands 29 672 keys through the leaf cursor, and leaves a store
// file of exactly these bytes. Those three were retaken when the shape
// became rows (423 pages and 29 572 keys before), and again when a leaf
// that overflows with a third of a page or more after the new key began
// to keep the key and split after it (412 pages and 29 674 keys before:
// the later flushes' runs land mid-tree, and a few of them now leave
// the entries after them a leaf of their own); the records other than
// the shape rows and the hash record hash as they did before either.
func TestShredTreeLayoutPinned(t *testing.T) {
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	path := filepath.Join(t.TempDir(), "layout.db")
	s, err := Open(path, WithCachePages(128))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shred("d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if got, want := imageHash(t, s, 'A', 'H'), "30376:bdc248fcda9fafaa"; got != want {
		t.Errorf("records other than the shape's hash to %s, want %s", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.BlocksWritten != 413 || stats.FastPathHits != 29672 {
		t.Errorf("shred wrote %d pages with %d leaf-cursor hits, want 413 and 29672",
			stats.BlocksWritten, stats.FastPathHits)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "1691648:d4ebbed8499e70d6902e999030c0798321b99308edfa95eb7a398121628d6aae"
	if got := fmt.Sprintf("%d:%x", len(file), sha256.Sum256(file)); got != want {
		t.Errorf("store file = %s, want %s", got, want)
	}
}

// TestLaterDocumentsPacked holds later documents to the first one's
// cost: six XMark sf 0.02 documents shredded into one file store. A
// later document's node records land mid-tree, just ahead of the first
// document's registry chunks, and its pages are almost all new ones, so
// each later shred may write at most 1.1 times the pages of the first
// (splits before the new key, which carry a 1.4 KB chunk into every
// leaf of the run, take 1.45 times). Every shred, the first included,
// may put at most 64 KB in the log (logging every page puts 2.4 MB
// there, as a new store's first commit did while it logged them all).
func TestLaterDocumentsPacked(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "later.db"), WithCachePages(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var first int64
	for seed := int64(1); seed <= 6; seed++ {
		xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: seed}).XML(false)
		before := s.Stats()
		if _, err := s.Shred(fmt.Sprintf("d%d", seed), strings.NewReader(xml), nil); err != nil {
			t.Fatal(err)
		}
		after := s.Stats()
		pages, logged := after.BlocksWritten-before.BlocksWritten, after.WALBytes-before.WALBytes
		t.Logf("document %d: %d pages written, %d log bytes", seed, pages, logged)
		if logged > 64<<10 {
			t.Errorf("document %d put %d bytes in the log, want <= 64 KB", seed, logged)
		}
		if seed == 1 {
			first = pages
			continue
		}
		if float64(pages) > 1.1*float64(first) {
			t.Errorf("document %d wrote %d pages, want <= 1.1 x the first's %d", seed, pages, first)
		}
	}
}
