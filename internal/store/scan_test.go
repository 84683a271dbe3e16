package store

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/xmltree"
)

// collectScan drains a TypeScan, copying the aliased buffers.
type scanned struct {
	dewey string
	value string
}

func collectScan(t *testing.T, s *TypeScan) []scanned {
	t.Helper()
	var out []scanned
	for s.Next() {
		out = append(out, scanned{s.Dewey().String(), string(s.Value())})
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan error: %v", err)
	}
	s.Close()
	return out
}

// TestScanTypeMatchesNodesOfType: the pull cursor must yield exactly the
// sequence NodesOfType materializes — same Dewey numbers, same values,
// same order — for every type of the document.
func TestScanTypeMatchesNodesOfType(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("fig1a", strings.NewReader(fig1a), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := s.Shape("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range sh.Types() {
		nodes := doc.NodesOfType(tp)
		got := collectScan(t, doc.ScanType(tp))
		if len(got) != len(nodes) {
			t.Fatalf("%s: scan yields %d nodes, sequence has %d", tp, len(got), len(nodes))
		}
		for i, n := range nodes {
			if got[i].dewey != n.Dewey.String() || got[i].value != n.Value {
				t.Errorf("%s[%d]: scan (%s, %q) != sequence (%s, %q)",
					tp, i, got[i].dewey, got[i].value, n.Dewey, n.Value)
			}
		}
	}
}

// TestScanTypeChunkedValues: multi-chunk values must reassemble across
// continuation records, through the same reused buffer.
func TestScanTypeChunkedValues(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	big := strings.Repeat("lorem ipsum ", 1000) // ~12 KB: spans several chunks
	src := "<doc><body>" + big + "</body><body>small</body></doc>"
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, doc.ScanType("doc.body"))
	if len(got) != 2 {
		t.Fatalf("bodies = %d, want 2", len(got))
	}
	if got[0].value != big {
		t.Errorf("chunked value corrupted: len=%d want %d", len(got[0].value), len(big))
	}
	if got[1].value != "small" {
		t.Errorf("value after chunked record: %q", got[1].value)
	}
}

// TestScanTypeBrokenChunkChain: a long value missing a continuation
// chunk is corruption — updates rewrite a value's chunks together — so
// the scan, the materialized load, Walk and Reconstruct all report an
// ErrStorage instead of serving the value cut short.
func TestScanTypeBrokenChunkChain(t *testing.T) {
	for _, missing := range []uint16{1, 3} { // a middle chunk, the last
		s := OpenMemory()
		big := strings.Repeat("lorem ipsum ", 400) // 4 800 bytes: four chunks
		src := "<doc><body>" + big + "</body><body>small</body></doc>"
		if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
			t.Fatal(err)
		}
		doc, err := s.Doc("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.db.Delete(nodeKey(doc.id, doc.typeID["doc.body"], xmltree.Dewey{1, 1}, missing)); err != nil {
			t.Fatal(err)
		}

		sc := doc.ScanType("doc.body")
		if sc.Next() {
			t.Errorf("chunk %d deleted: the scan yielded a %d-byte value of %d", missing, len(sc.Value()), len(big))
		}
		if err := sc.Err(); !errors.Is(err, ErrStorage) {
			t.Errorf("chunk %d deleted: scan error %v, want an ErrStorage", missing, err)
		}
		sc.Close()

		if ns := doc.NodesOfType("doc.body"); len(ns) != 0 {
			t.Errorf("chunk %d deleted: NodesOfType loaded %d nodes", missing, len(ns))
		}
		if err := doc.Err(); !errors.Is(err, ErrStorage) {
			t.Errorf("chunk %d deleted: Doc.Err = %v, want an ErrStorage", missing, err)
		}
		if _, err := doc.Reconstruct(); !errors.Is(err, ErrStorage) {
			t.Errorf("chunk %d deleted: Reconstruct err = %v, want an ErrStorage", missing, err)
		}
		if _, err := walkSize(doc); !errors.Is(err, ErrStorage) {
			t.Errorf("chunk %d deleted: Walk err = %v, want an ErrStorage", missing, err)
		}
		s.Close()
	}
}

// nodeCounter is a Handler that counts the nodes it is handed: elements
// and attributes.
type nodeCounter int

func (n *nodeCounter) Start(string)        { *n++ }
func (n *nodeCounter) Attr(string, string) { *n++ }
func (*nodeCounter) Text(string)           {}
func (*nodeCounter) End()                  {}
func (*nodeCounter) Err() error            { return nil }

// walkSize counts the nodes d's Walk hands over before it ends.
func walkSize(d *Doc) (int, error) {
	var n nodeCounter
	err := d.Walk(&n)
	return int(n), err
}

// failingWriter takes n writes, then refuses every one.
type failingWriter struct{ n int }

var errRefused = errors.New("write refused")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errRefused
	}
	w.n--
	return len(p), nil
}

// TestWalkFailures: Walk stops at the first fault and returns it. A node
// record whose parent's is missing and a value's chunk chain that breaks
// off after the walk has begun are ErrStorage errors; a handler that
// fails — an Encoder whose writer refuses its second block — ends the
// walk with the handler's error, long before it has read the document.
func TestWalkFailures(t *testing.T) {
	t.Run("missing parent", func(t *testing.T) {
		s := OpenMemory()
		defer s.Close()
		if _, err := s.Shred("d", strings.NewReader(`<a><b><c>1</c></b><b/></a>`), nil); err != nil {
			t.Fatal(err)
		}
		doc, err := s.Doc("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.db.Delete(nodeKey(doc.id, doc.typeID["a.b"], xmltree.Dewey{1, 1}, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := walkSize(doc); !errors.Is(err, ErrStorage) {
			t.Errorf("Walk err = %v, want an ErrStorage", err)
		}
		if _, err := doc.Reconstruct(); !errors.Is(err, ErrStorage) {
			t.Errorf("Reconstruct err = %v, want an ErrStorage", err)
		}
	})

	t.Run("chain breaks mid-walk", func(t *testing.T) {
		s := OpenMemory()
		defer s.Close()
		big := strings.Repeat("lorem ipsum ", 400) // four chunks
		if _, err := s.Shred("d", strings.NewReader("<doc><body>small</body><body>"+big+"</body></doc>"), nil); err != nil {
			t.Fatal(err)
		}
		doc, err := s.Doc("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.db.Delete(nodeKey(doc.id, doc.typeID["doc.body"], xmltree.Dewey{1, 2}, 2)); err != nil {
			t.Fatal(err)
		}
		n, err := walkSize(doc)
		if !errors.Is(err, ErrStorage) {
			t.Errorf("Walk err = %v, want an ErrStorage", err)
		}
		if n != 2 {
			t.Errorf("Walk handed over %d nodes before the break, want 2", n)
		}
	})

	t.Run("handler fails", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "d.db")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		xml := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}).XML(false)
		if _, err := s.Shred("d", strings.NewReader(xml), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Each dump opens the store cold and counts the blocks it reads.
		pages := func(w io.Writer) (int64, error) {
			s, err := Open(path, WithCachePages(4096))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			doc, err := s.Doc("d")
			if err != nil {
				t.Fatal(err)
			}
			before := s.Stats().BlocksRead
			err = doc.Walk(xmltree.NewEncoder(w, false))
			return s.Stats().BlocksRead - before, err
		}
		full, err := pages(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		// Opening the walk positions a cursor on each type's first node,
		// which reads the first leaf of every type's run: the blocks a
		// walk that fails at its first block reads. One block later the
		// walk has read a few leaves more, one per crossing, and
		// stopped.
		first, err := pages(&failingWriter{n: 0})
		if !errors.Is(err, errRefused) {
			t.Fatalf("Walk err = %v, want the writer's", err)
		}
		cut, err := pages(&failingWriter{n: 1})
		if !errors.Is(err, errRefused) {
			t.Fatalf("Walk err = %v, want the writer's", err)
		}
		t.Logf("blocks read: %d by the full dump, %d and %d by dumps failing at their first and second block", full, first, cut)
		if cut > first+32 || cut > full/3 {
			t.Errorf("the dump failing at its second block read %d blocks, at its first %d, the full one %d", cut, first, full)
		}
	})
}

// TestScanTypeAttributes: attribute types scan like any other, and the
// cursor reports their attr-ness.
func TestScanTypeAttributes(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(`<site><item id="i1"/><item id="i2"/></site>`), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	sc := doc.ScanType("site.item.@id")
	if !sc.Attr() {
		t.Error("attribute type not flagged")
	}
	got := collectScan(t, sc)
	if len(got) != 2 || got[0].value != "i1" || got[1].value != "i2" {
		t.Errorf("attr scan = %+v", got)
	}
}

// TestScanTypeUnknownAndClosed: unknown types yield an empty scan, and a
// closed scan stays exhausted.
func TestScanTypeUnknownAndClosed(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(`<a><b>1</b></a>`), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	sc := doc.ScanType("no.such.type")
	if sc.Next() {
		t.Error("unknown type should scan empty")
	}
	if err := sc.Err(); err != nil {
		t.Errorf("unknown type err: %v", err)
	}
	sc.Close() // double close is fine

	sc = doc.ScanType("a.b")
	if !sc.Next() {
		t.Fatal("expected a node")
	}
	sc.Close()
	if sc.Next() {
		t.Error("closed scan should be exhausted")
	}
	sc.Close()
}

// TestScanTypeViewIsolation: a View-bound scan reads the pinned epoch,
// unaffected by a Drop landing after the view opened.
func TestScanTypeViewIsolation(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(`<a><b>1</b><b>2</b></a>`), nil); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	defer v.Close()
	doc, err := v.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("d"); err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, doc.ScanType("a.b"))
	if len(got) != 2 {
		t.Errorf("view scan after drop: %d nodes, want 2", len(got))
	}
}

// TestViewDocAllocs guards the copy-free read path under View.Doc, which
// every query pays: the document-id lookup and the type registry's
// chunked read search page images in place instead of decoding every
// page on their paths, and the registry's iterator stays on the stack.
// Opening an XMark sf 0.005 document through a View takes 4
// allocations; when Gets decoded pages it took 90, and a registry
// decoded per request would take 12.
func TestViewDocAllocs(t *testing.T) {
	st := OpenMemory()
	defer st.Close()
	xml := xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42}).XML(false)
	if _, err := st.Shred("d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	defer v.Close()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := v.Doc("d"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("View.Doc: %.0f allocations", allocs)
	if allocs > 6 {
		t.Errorf("View.Doc allocates %.0f times, want <= 6", allocs)
	}
}

// TestRegistryMissingChunk: a type registry whose chunk chain breaks
// off, in its middle or at its end, fails View.Doc with the chunk it
// lacks, whichever key the pass over the chunks meets in its place.
func TestRegistryMissingChunk(t *testing.T) {
	xml := xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42}).XML(false)
	for _, last := range []bool{false, true} {
		st := OpenMemory()
		if _, err := st.Shred("d", strings.NewReader(xml), nil); err != nil {
			t.Fatal(err)
		}
		id, _, err := docIDIn(st.db, "d")
		if err != nil {
			t.Fatal(err)
		}
		first, ok, err := st.db.Get(append(blobKey('T', id), 0, 0))
		if err != nil || !ok || len(first) < 2 {
			t.Fatalf("registry chunk 0: %v %v", ok, err)
		}
		n := int(first[0])<<8 | int(first[1])
		if n < 3 {
			t.Fatalf("the registry has %d chunks, want a middle one", n)
		}
		i := 1
		if last {
			i = n - 1
		}
		if err := st.db.Delete(append(blobKey('T', id), 0, byte(i))); err != nil {
			t.Fatal(err)
		}
		v := st.View()
		_, err = v.Doc("d")
		v.Close()
		if want := fmt.Sprintf("blob missing chunk %d of %d", i, n); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("View.Doc err = %v, want %q", err, want)
		}
		st.Close()
	}
}

// TestViewDocBytes guards the bytes View.Doc allocates, which every query
// pays too. Every Doc of a document shares one decoded type registry
// while the stored one is unchanged, so a Doc is a small handle: opening
// an XMark sf 0.005 document takes 80 bytes. When each View.Doc decoded
// the registry into its own paths and name-to-id map, it took 29 KB.
func TestViewDocBytes(t *testing.T) {
	st := OpenMemory()
	defer st.Close()
	xml := xmark.Generate(xmark.Config{Factor: 0.005, Seed: 42}).XML(false)
	if _, err := st.Shred("d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	defer v.Close()
	doc, err := v.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.Doc("d"); err != nil {
				b.Fatal(err)
			}
		}
	})
	perOp := res.AllocedBytesPerOp()
	t.Logf("View.Doc: %d bytes for %d types", perOp, len(doc.Types()))
	if limit := int64(128); perOp > limit {
		t.Errorf("View.Doc allocates %d bytes, want <= %d", perOp, limit)
	}
}

// TestWalkPeakHeapFlat: the streamed dump holds one node per type and
// builds nothing, so the heap it adds while it runs stays flat from
// XMark sf 0.01 to sf 0.05, five times the nodes. Both stores stay live
// throughout, so the collector marks the same heap in both measurements.
// Reconstruct's sort over every materialized node grew by megabytes;
// the slack covers the collector's timing (the walk's own growth is
// under 100 KB).
func TestWalkPeakHeapFlat(t *testing.T) {
	const slack = 256 << 10
	var peaks [2]uint64
	var dumps [2]func()
	for i, factor := range []float64{0.01, 0.05} {
		s := OpenMemory(WithCachePages(4096))
		defer s.Close()
		xml := xmark.Generate(xmark.Config{Factor: factor, Seed: 42}).XML(false)
		if _, err := s.Shred("d", strings.NewReader(xml), nil); err != nil {
			t.Fatal(err)
		}
		v := s.View()
		defer v.Close()
		dumps[i] = func() {
			doc, err := v.Doc("d")
			if err != nil {
				t.Fatal(err)
			}
			e := xmltree.NewEncoder(io.Discard, false)
			if err := errors.Join(doc.Walk(e), e.Flush()); err != nil {
				t.Fatal(err)
			}
		}
		dumps[i]() // warm the page cache
	}
	for i, dump := range dumps {
		peaks[i] = peakHeap(dump)
	}
	t.Logf("peak heap added: %d KB at sf 0.01, %d KB at sf 0.05", peaks[0]>>10, peaks[1]>>10)
	if peaks[1] > peaks[0]+slack {
		t.Errorf("peak heap grew from %d KB to %d KB, want at most %d KB more", peaks[0]>>10, peaks[1]>>10, slack>>10)
	}
}

// peakHeap returns the most heap f keeps live above what was live
// before it: the largest live heap any collection during f finds, under
// a collector that runs every few dozen kilobytes. A collection also
// counts what f allocates while it marks, so the least of five rounds is
// taken. (internal/logical's peak-heap guard measures the same way.)
func peakHeap(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	least := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		least = min(least, peakRound(f))
	}
	return least
}

func peakRound(f func()) uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	base, peak := sample[0].Value.Uint64(), uint64(0)
	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: sample[0].Name}}
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
			}
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			runtime.Gosched()
		}
	}()
	<-started
	for i := 0; i < 4; i++ {
		f()
	}
	close(stop)
	wg.Wait()
	return max(peak, base) - base
}
