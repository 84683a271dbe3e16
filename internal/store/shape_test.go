package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/shape"
	"xmorph/internal/update"
)

// TestDecodeShapeAllocs bounds the allocations of decoding a stored
// shape, which every update (the old shape) and every guard-cache miss
// does. XMark sf 0.05's shape has 244 types; a decoder that splits the
// record into lines and every line into a fields slice, and grows its
// maps, makes 736 allocations for it. Parsing in place into presized
// maps makes 215; the bound is 415.
func TestDecodeShapeAllocs(t *testing.T) {
	sh := shape.FromDocument(xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}))
	enc := encodeShape(sh)
	got, err := decodeShape(enc)
	if err != nil {
		t.Fatal(err)
	}
	if encodeShape(got) != enc {
		t.Fatal("decodeShape does not round-trip the encoded shape")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeShape(enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decodeShape: %d types, %.0f allocs", sh.NumTypes(), allocs)
	if allocs > 415 {
		t.Errorf("decodeShape made %.0f allocations for %d types, want at most 415", allocs, sh.NumTypes())
	}
}

// TestDecodeShapeCorrupt pins the error each kind of corrupt shape line
// returns.
func TestDecodeShapeCorrupt(t *testing.T) {
	cases := []struct{ enc, want string }{
		{"type a b\n", `store: corrupt shape line "type a b"`},
		{"type\n", `store: corrupt shape line "type"`},
		{"edge a b 1\n", `store: corrupt shape line "edge a b 1"`},
		{"edge a b 1 2 3\n", `store: corrupt shape line "edge a b 1 2 3"`},
		{"edge a b x 2\n", `store: corrupt shape cardinality "edge a b x 2"`},
		{"edge a b 1 y\n", `store: corrupt shape cardinality "edge a b 1 y"`},
		{"node a\n", `store: corrupt shape line "node a"`},
		{" \t\n", `store: corrupt shape line " \t"`},
		{"type a\nedge a a 1 1\n", "shape: self edge on a"},
		{"edge a b 1 1\nedge c b 1 1\n", "shape: type b already has parent a"},
		{"edge a b 1 1\nedge b a 1 1\n", "shape: edge b -> a would create a cycle"},
	}
	for _, c := range cases {
		_, err := decodeShape(c.enc)
		if err == nil || err.Error() != c.want {
			t.Errorf("decodeShape(%q) = %v, want %s", c.enc, err, c.want)
		}
	}
	// Blank lines and runs of spaces or tabs between fields are accepted.
	sh, err := decodeShape("\ntype a\n\n  edge\ta  a.b 0\t 2 \n")
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := sh.Card("a", "a.b"); !ok || c != (shape.Card{Min: 0, Max: 2}) || !strings.Contains(sh.String(), "a.b 0..2") {
		t.Errorf("decoded %q, want a -> a.b 0..2", sh.String())
	}
}

// TestShapeKeepingUpdateWritesOnlyItsEdit holds an update that keeps the
// document's shape to the pages of its own edit: the two shape-keeping
// scripts of the serve benchmark's writer cycle each write at most four
// pages of a file-backed XMark sf 0.02 store, report Unchanged, and leave
// the shape, type registry and hash records byte for byte as they were.
// Rewriting those three records alone costs 17 pages. A script that
// widens the shape still rewrites the shape and hash records, and one
// that narrows it rewrites them but not the registry, which only grows.
func TestShapeKeepingUpdateWritesOnlyItsEdit(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42})
	st, err := Open(filepath.Join(t.TempDir(), "d.db"), WithCachePages(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Shred("d", strings.NewReader(doc.XML(false)), nil); err != nil {
		t.Fatal(err)
	}
	cats := 0
	for _, n := range doc.Nodes() {
		if n.Type == "site.categories.category" {
			cats++
		}
	}
	var graph strings.Builder
	graph.WriteString("replace site.catgraph with <catgraph>")
	for i := 0; i < cats; i++ {
		fmt.Fprintf(&graph, `<edge from="category%d" to="category%d"/>`, (7*i)%cats, (3*i+1)%cats)
	}
	graph.WriteString("</catgraph>")

	records := func(table byte) string { return tableRecords(t, st, "d", table) }
	run := func(script string) *UpdateInfo {
		t.Helper()
		ops, err := update.Parse(script)
		if err != nil {
			t.Fatal(err)
		}
		info, err := st.Update("d", ops, nil)
		if err != nil {
			t.Fatalf("Update(%.40q…): %v", script, err)
		}
		return info
	}

	for _, c := range []struct{ name, script string }{
		{"catgraph", graph.String()},
		{"catnames", "replace site.categories.category.name with <name>lot 7</name>"},
	} {
		s0, t0, h0 := records('S'), records('T'), records('H')
		info := run(c.script)
		if info.Delta.Kind != update.Unchanged {
			t.Errorf("%s: delta %v, want unchanged", c.name, info.Delta)
		}
		if info.PagesWritten > 4 {
			t.Errorf("%s wrote %d pages, want at most 4", c.name, info.PagesWritten)
		}
		for _, r := range []struct {
			table       byte
			before, now string
		}{{'S', s0, records('S')}, {'T', t0, records('T')}, {'H', h0, records('H')}} {
			if r.before != r.now {
				t.Errorf("%s changed the %c record", c.name, r.table)
			}
		}
		t.Logf("%s: %d pages", c.name, info.PagesWritten)
	}

	for _, c := range []struct {
		name, script string
		kind         update.DeltaKind
		registry     bool // whether the 'T' record changes
	}{
		{"promo-in", "insert <promo><banner>sale 7</banner><until>12/31/2001</until></promo> into site.open_auctions", update.Widened, true},
		{"promo-out", "delete site.open_auctions.promo", update.Narrowed, false},
	} {
		s0, t0, h0 := records('S'), records('T'), records('H')
		info := run(c.script)
		if info.Delta.Kind != c.kind {
			t.Errorf("%s: delta %v, want %v", c.name, info.Delta, c.kind)
		}
		if records('S') == s0 || records('H') == h0 {
			t.Errorf("%s left the shape or hash record as it was", c.name)
		}
		if changed := records('T') != t0; changed != c.registry {
			t.Errorf("%s: registry changed %v, want %v", c.name, changed, c.registry)
		}
		t.Logf("%s: %d pages", c.name, info.PagesWritten)
	}
	checkStoredShape(t, st, "d")
}

// TestUpdateRewritesShapeRecordsOnlyOnChange runs scripts whose shape
// change is only in cards, only in sibling order, or nothing at all,
// on small documents: the shape and hash records are rewritten exactly
// when the delta is not Unchanged, the registry exactly when the script
// entered a new type, and what is stored is a shred's of the result.
func TestUpdateRewritesShapeRecordsOnlyOnChange(t *testing.T) {
	cases := []struct {
		name, doc, script string
		kind              update.DeltaKind
		registry          bool
	}{
		{"kept", `<r><p><q>1</q></p><p><q>2</q><q>3</q></p></r>`, `replace r.p.q with <q>9</q>`, update.Unchanged, false},
		{"card widened", `<r><p><q/></p><p><s/></p></r>`, `insert <q/> after r.p.q`, update.Widened, false},
		{"card narrowed", `<r><p><q/></p><p><s/></p></r>`, `insert <q/> before r.p.s`, update.Narrowed, false},
		{"cards moved both ways", `<r><p><q/></p><p><q/></p></r>`, `insert <q/> into r.p`, update.Mixed, false},
		{"reordered", `<r><p><a/><b/></p></r>`, `delete r.p.a ; insert <a/> into r.p`, update.Mixed, false},
		{"type in and out", `<r><p><q/></p></r>`, `insert <z/> into r.p ; delete r.p.z`, update.Unchanged, true},
		{"type added", `<r><p><q/></p></r>`, `insert <z/> into r.p`, update.Widened, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := OpenMemory()
			defer st.Close()
			if _, err := st.Shred("d", strings.NewReader(c.doc), nil); err != nil {
				t.Fatal(err)
			}
			s0, t0, h0 := tableRecords(t, st, "d", 'S'), tableRecords(t, st, "d", 'T'), tableRecords(t, st, "d", 'H')
			ops, err := update.Parse(c.script)
			if err != nil {
				t.Fatal(err)
			}
			info, err := st.Update("d", ops, nil)
			if err != nil {
				t.Fatal(err)
			}
			if info.Delta.Kind != c.kind {
				t.Errorf("delta %v, want %v", info.Delta, c.kind)
			}
			changed := c.kind != update.Unchanged
			if got := tableRecords(t, st, "d", 'S') != s0; got != changed {
				t.Errorf("shape record rewritten %v, want %v", got, changed)
			}
			if got := tableRecords(t, st, "d", 'H') != h0; got != changed {
				t.Errorf("hash record rewritten %v, want %v", got, changed)
			}
			if got := tableRecords(t, st, "d", 'T') != t0; got != c.registry {
				t.Errorf("registry rewritten %v, want %v", got, c.registry)
			}
			checkStoredShape(t, st, "d")
		})
	}
}

// tableRecords returns the keys and bytes of every record one table
// holds for a document.
func tableRecords(t *testing.T, st *Store, name string, table byte) string {
	t.Helper()
	v := st.View()
	defer v.Close()
	id, err := docIDOf(v.snap, name)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := v.snap.AscendPrefix(blobKey(table, id), func(k, val []byte) bool {
		fmt.Fprintf(&b, "%x=%x\n", k, val)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkStoredShape requires a document's stored shape and hash records
// to be those a shred of its reconstruction writes.
func checkStoredShape(t *testing.T, st *Store, name string) {
	t.Helper()
	v := st.View()
	defer v.Close()
	d, err := v.Doc(name)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := d.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	blob, ok, err := getBlob(v.snap, blobKey('S', d.id))
	if err != nil || !ok {
		t.Fatalf("shape record: ok=%v err=%v", ok, err)
	}
	h, ok, err := v.ShapeHash(name)
	if err != nil || !ok {
		t.Fatalf("ShapeHash: ok=%v err=%v", ok, err)
	}
	if want := encodeShape(shape.FromDocument(doc)); string(blob) != want || h != hashShapeEnc(want) {
		t.Errorf("stored shape record or hash is not a shred's of the document:\n%s\nwant\n%s", blob, want)
	}
}

// TestSplitFieldsMatchesFields holds splitFields to strings.Fields,
// Unicode white space and invalid UTF-8 included.
func TestSplitFieldsMatchesFields(t *testing.T) {
	for _, line := range []string{
		"", " ", "a", " a  b\t", "edge a a.b 0 2", "a b", " x\u0085y ", "é ü", "\xffa b\xfe", "a\vb\fc\rd",
	} {
		var dst [8]string
		n := splitFields(line, dst[:])
		want := strings.Fields(line)
		if n != len(want) || strings.Join(dst[:n], "|") != strings.Join(want, "|") {
			t.Errorf("splitFields(%q) = %q, want %q", line, dst[:n], want)
		}
	}
	var dst [2]string
	if n := splitFields("a b c", dst[:]); n != 3 || dst != [2]string{"a", "b"} {
		t.Errorf("splitFields into a short dst = %d %q, want 3 [a b]", n, dst)
	}
}

// BenchmarkDecodeShape decodes XMark sf 0.05's stored shape.
func BenchmarkDecodeShape(b *testing.B) {
	enc := encodeShape(shape.FromDocument(xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42})))
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeShape(enc); err != nil {
			b.Fatal(err)
		}
	}
}
