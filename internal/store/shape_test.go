package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/kvstore"
	"xmorph/internal/shape"
	"xmorph/internal/update"
)

// TestLoadShapeAllocs bounds the allocations of loading a stored shape,
// which every guard-cache miss does. XMark sf 0.05's shape has 244
// types; parsing the chunked text record it was kept in before it became
// rows took 229 allocations, registry included, and adding each row's
// types and edges by name took 147. Building the shape's slices from
// the rows' registry ids takes 72, and the bound is 80.
func TestLoadShapeAllocs(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42})
	st := OpenMemory()
	defer st.Close()
	if _, err := st.Shred("d", strings.NewReader(doc.XML(false)), nil); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	defer v.Close()
	sh, err := shapeIn(v.snap, "d")
	if err != nil {
		t.Fatal(err)
	}
	if want := shape.FromDocument(doc); sh.String() != want.String() {
		t.Fatal("the loaded shape is not the document's")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := shapeIn(v.snap, "d"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("load shape: %d types, %.0f allocs", sh.NumTypes(), allocs)
	if allocs > 80 {
		t.Errorf("loading the shape made %.0f allocations for %d types, want at most 80", allocs, sh.NumTypes())
	}
}

// TestLoadShapeCorrupt pins the error each kind of corrupt shape row
// returns, every one an ErrStorage. The document is <r><p><q/></p></r>,
// whose rows are r -> r.p, r.p -> r.p.q and the roots row.
func TestLoadShapeCorrupt(t *testing.T) {
	type rec struct {
		key []byte // after 'A' docID
		val []byte
	}
	st := OpenMemory()
	defer st.Close()
	if _, err := st.Shred("d", strings.NewReader(`<r><p><q/></p></r>`), nil); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	id, err := docIDOf(v.snap, "d")
	if err != nil {
		t.Fatal(err)
	}
	types, err := typesIn(v.snap, id)
	v.Close()
	if err != nil {
		t.Fatal(err)
	}
	reg := newTypeRegistry(types)
	r, p, q := reg.typeID["r"], reg.typeID["r.p"], reg.typeID["r.p.q"]
	// row builds the one-chunk record of a row from uvarints.
	row := func(ptid uint32, xs ...uint64) rec {
		val := []byte{0, 1}
		for _, x := range xs {
			val = binary.AppendUvarint(val, x)
		}
		return rec{binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(nil, ptid), 0), val}
	}
	u := func(x uint32) uint64 { return uint64(x) }
	roots, rp, pq := row(rootsRow, u(r)), row(r, u(p), 1, 1), row(p, u(q), 1, 1)
	n := uint64(len(types))
	cases := []struct {
		name string
		recs []rec
		want string
	}{
		{"short key", []rec{{[]byte{0, 0, 0}, []byte{0, 1}}, roots}, "bad key"},
		{"chunk without its first", []rec{{[]byte{0, 0, 0, byte(r), 0, 1}, []byte{0, 1}}, pq, roots}, "bad first chunk"},
		{"empty first chunk", []rec{{[]byte{0, 0, 0, byte(r), 0, 0}, nil}, pq, roots}, "bad first chunk"},
		{"chain cut off", []rec{{[]byte{0, 0, 0, byte(r), 0, 0}, []byte{0, 2, byte(p), 1, 1}}, pq, roots}, "chunk 1 of 2 missing"},
		{"chain cut off at the end", []rec{rp, pq, {roots.key, []byte{0, 2, byte(r)}}}, "chunk 1 of 2 missing"},
		{"child out of range", []rec{row(r, n, 1, 1), pq, roots}, "bad child typeID"},
		{"card cut off", []rec{row(r, u(p), 1), pq, roots}, "bad card"},
		{"min above max", []rec{row(r, u(p), 2, 1), pq, roots}, "bad card"},
		{"parent out of range", []rec{rp, pq, row(uint32(n), u(q), 1, 1), roots}, "out of range"},
		{"child under another parent", []rec{row(r, u(p), 1, 1, u(q), 1, 1), roots}, "r.p.q filed under r"},
		{"root with a parent", []rec{rp, pq, row(rootsRow, u(p))}, "root r.p has a parent type"},
		{"no roots row", []rec{rp, pq}, "no roots row"},
		{"child listed twice", []rec{row(r, u(p), 1, 1, u(p), 1, 1), pq, roots}, "list 1 roots and 3 edges over 3 types"},
		{"root listed twice", []rec{rp, pq, row(rootsRow, u(r), u(r))}, "list 2 roots and 2 edges over 3 types"},
		{"row of an unlisted type", []rec{pq, roots}, "list 1 roots and 1 edges over 3 types"},
	}
	for _, c := range cases {
		var b kvstore.Batch
		if err := st.db.AscendPrefix(rowPrefix(id), func(k, _ []byte) bool {
			b.Delete(append([]byte(nil), k...))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range c.recs {
			b.Put(append(rowPrefix(id), r.key...), r.val)
		}
		if err := st.db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		v := st.View()
		_, err := v.Shape("d")
		v.Close()
		if !errors.Is(err, ErrStorage) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an ErrStorage containing %q", c.name, err, c.want)
		}
	}
}

// TestShapeKeepingUpdateWritesOnlyItsEdit holds an update that keeps the
// document's shape to the pages of its own edit: the two shape-keeping
// scripts of the serve benchmark's writer cycle each write at most four
// pages of a file-backed XMark sf 0.02 store, report Unchanged, and leave
// the shape rows, type registry and hash records byte for byte as they
// were. A script that widens the shape rewrites the rows it changed and
// the hash record, and one that narrows it rewrites them but not the
// registry, which only grows. Each of those writes at most six pages:
// when the shape was one 34 KB record they wrote 18 and 14.
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
		s0, t0, h0 := records('A'), records('T'), records('H')
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
		}{{'A', s0, records('A')}, {'T', t0, records('T')}, {'H', h0, records('H')}} {
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
		s0, t0, h0 := records('A'), records('T'), records('H')
		info := run(c.script)
		if info.Delta.Kind != c.kind {
			t.Errorf("%s: delta %v, want %v", c.name, info.Delta, c.kind)
		}
		// The rows of site.open_auctions and of site.open_auctions.promo
		// change; no other row does.
		if n := changedRecords(s0, records('A')); n != 2 || records('H') == h0 {
			t.Errorf("%s changed %d shape rows and the hash record %v, want 2 and true", c.name, n, records('H') != h0)
		}
		if info.PagesWritten > 6 {
			t.Errorf("%s wrote %d pages, want at most 6", c.name, info.PagesWritten)
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
// on small documents: the shape rows and hash record are rewritten
// exactly when the delta is not Unchanged, the registry exactly when the script
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
			s0, t0, h0 := tableRecords(t, st, "d", 'A'), tableRecords(t, st, "d", 'T'), tableRecords(t, st, "d", 'H')
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
			if got := tableRecords(t, st, "d", 'A') != s0; got != changed {
				t.Errorf("shape rows rewritten %v, want %v", got, changed)
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

// changedRecords counts the keys whose records differ between two
// tableRecords listings, present in one only included.
func changedRecords(before, after string) int {
	records := func(listing string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(listing), "\n") {
			k, v, _ := strings.Cut(line, "=")
			m[k] = v
		}
		return m
	}
	b, a := records(before), records(after)
	n := 0
	for k, v := range b {
		if w, ok := a[k]; !ok || w != v {
			n++
		}
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			n++
		}
	}
	return n
}

// checkStoredShape requires a document's stored shape rows and hash
// record to be those a shred of its reconstruction writes: the same
// shape, and the same hash, which does not depend on typeIDs.
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
	sh, err := v.Shape(name)
	if err != nil {
		t.Fatal(err)
	}
	h, ok, err := v.ShapeHash(name)
	if err != nil || !ok {
		t.Fatalf("ShapeHash: ok=%v err=%v", ok, err)
	}
	oracle := OpenMemory()
	defer oracle.Close()
	if _, err := oracle.Shred(name, strings.NewReader(doc.XML(false)), nil); err != nil {
		t.Fatal(err)
	}
	ov := oracle.View()
	defer ov.Close()
	want, err := ov.Shape(name)
	if err != nil {
		t.Fatal(err)
	}
	wh, _, err := ov.ShapeHash(name)
	if err != nil {
		t.Fatal(err)
	}
	if sh.String() != want.String() || h != wh || h != HashShape(want) {
		t.Errorf("stored shape or hash (%x) is not a shred's of the document (%x):\n%s\nwant\n%s", h, wh, sh, want)
	}
}

// BenchmarkLoadShape loads XMark sf 0.05's stored shape, registry
// included: the load-shape step of a guard-cache miss.
func BenchmarkLoadShape(b *testing.B) {
	st := OpenMemory()
	defer st.Close()
	if _, err := st.Shred("d", strings.NewReader(xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42}).XML(false)), nil); err != nil {
		b.Fatal(err)
	}
	v := st.View()
	defer v.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shapeIn(v.snap, "d"); err != nil {
			b.Fatal(err)
		}
	}
}
