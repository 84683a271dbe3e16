package store

import (
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

// TestSizeCountsWithoutCaching: Doc.Size must count every vertex by
// scanning header-chunk keys, without materializing or caching any type
// sequence.
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
	if got := doc.Size(); got != 7 {
		t.Errorf("Size = %d, want 7", got)
	}
	doc.mu.Lock()
	cached := len(doc.cache)
	doc.mu.Unlock()
	if cached != 0 {
		t.Errorf("Size materialized %d type sequences", cached)
	}
	// And it must agree with full materialization.
	n := 0
	for _, typ := range doc.Types() {
		n += len(doc.NodesOfType(typ))
	}
	if got := doc.Size(); got != n {
		t.Errorf("Size = %d, materialized count = %d", got, n)
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
	if doc.Size() != want.Size() {
		t.Fatalf("sizes differ: stored %d, parsed %d", doc.Size(), want.Size())
	}
	got, err := doc.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got.XML(false) != want.XML(false) {
		t.Errorf("reconstruction differs from the parsed source:\nstored: %s\nparsed: %s", got.XML(false), want.XML(false))
	}
	if s.Stats().BatchedPuts == 0 {
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
	if s.Stats().BatchedPuts == 0 {
		t.Fatal("the failed shred flushed nothing: the test does not reach the leak")
	}
	for _, table := range []byte{'N', 'S', 'T', 'H', 'D'} {
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

// TestShredAllocsPerNode guards the ingest path end to end on the XMark
// sf 0.02 document: tokenizing, shredding and the PutBatch flushes must
// stay under 4 allocations per shredded node.
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
	t.Logf("%d nodes, %.1f allocations per node", nodes, perNode)
	if perNode > 4 {
		t.Errorf("shred: %.1f allocations per node, want <= 4", perNode)
	}
}
