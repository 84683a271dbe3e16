package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmorph/internal/gen/random"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/kvstore"
	"xmorph/internal/store"
	"xmorph/internal/update"
	"xmorph/internal/xmltree"
)

func mustOps(t *testing.T, src string) []update.Op {
	t.Helper()
	ops, err := update.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return ops
}

func shredInto(t *testing.T, st *store.Store, name, xml string) {
	t.Helper()
	if _, err := st.Shred(name, strings.NewReader(xml), nil); err != nil {
		t.Fatalf("Shred(%q): %v", name, err)
	}
}

// reconstructXML reads the whole stored document back as XML bytes.
func reconstructXML(t *testing.T, st *store.Store, name string) string {
	t.Helper()
	v := st.View()
	defer v.Close()
	d, err := v.Doc(name)
	if err != nil {
		t.Fatalf("Doc(%q): %v", name, err)
	}
	doc, err := d.Reconstruct()
	if err != nil {
		t.Fatalf("Reconstruct(%q): %v", name, err)
	}
	return doc.XML(false)
}

// docVersion is name's shred version at the committed state.
func docVersion(st *store.Store, name string) uint32 {
	v := st.View()
	defer v.Close()
	ver, _, _ := v.DocVersion(name)
	return ver
}

// assertMatchesReshred shreds the updated store's reconstruction into a
// fresh store and requires identical reconstruction bytes and shape —
// the round-trip leg of the differential oracle (store state after
// Update must describe the same document a full re-shred would).
func assertMatchesReshred(t *testing.T, st *store.Store, name string) {
	t.Helper()
	got := reconstructXML(t, st, name)
	ref := store.OpenMemory()
	defer ref.Close()
	shredInto(t, ref, name, got)
	if again := reconstructXML(t, ref, name); again != got {
		t.Fatalf("reconstruction is not shred-stable:\n%s\nvs\n%s", got, again)
	}
	gotShape, err := st.Shape(name)
	if err != nil {
		t.Fatalf("Shape: %v", err)
	}
	refShape, err := ref.Shape(name)
	if err != nil {
		t.Fatalf("ref Shape: %v", err)
	}
	if gotShape.String() != refShape.String() {
		t.Fatalf("updated shape diverges from re-shred shape:\n%s\nvs\n%s",
			gotShape.String(), refShape.String())
	}
}

func TestUpdateBasicOps(t *testing.T) {
	const doc = `<lib><book id="1"><title>A</title><author>X</author></book><book id="2"><title>B</title></book></lib>`
	cases := []struct {
		name   string
		script string
		want   string
	}{
		{
			"insert into",
			`insert <year>2012</year> into lib.book`,
			`<lib><book id="1"><title>A</title><author>X</author><year>2012</year></book><book id="2"><title>B</title><year>2012</year></book></lib>`,
		},
		{
			"insert before",
			`insert <isbn>z</isbn> before lib.book.title`,
			`<lib><book id="1"><isbn>z</isbn><title>A</title><author>X</author></book><book id="2"><isbn>z</isbn><title>B</title></book></lib>`,
		},
		{
			"insert after",
			`insert <isbn>z</isbn> after lib.book.title`,
			`<lib><book id="1"><title>A</title><isbn>z</isbn><author>X</author></book><book id="2"><title>B</title><isbn>z</isbn></book></lib>`,
		},
		{
			"delete element",
			`delete lib.book.author`,
			`<lib><book id="1"><title>A</title></book><book id="2"><title>B</title></book></lib>`,
		},
		{
			"delete attribute",
			`delete lib.book.@id`,
			`<lib><book><title>A</title><author>X</author></book><book><title>B</title></book></lib>`,
		},
		{
			"replace subtree",
			`replace lib.book.title with <name lang="en">T</name>`,
			`<lib><book id="1"><name lang="en">T</name><author>X</author></book><book id="2"><name lang="en">T</name></book></lib>`,
		},
		{
			"replace root",
			`replace lib with <shelf><label>new</label></shelf>`,
			`<shelf><label>new</label></shelf>`,
		},
		{
			"multi-statement script",
			`delete lib.book.author ; insert <ed>3</ed> into lib.book ; replace lib.book.title with <t>n</t>`,
			`<lib><book id="1"><t>n</t><ed>3</ed></book><book id="2"><t>n</t><ed>3</ed></book></lib>`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := store.OpenMemory()
			defer st.Close()
			shredInto(t, st, "d", doc)
			verBefore := docVersion(st, "d")
			info, err := st.Update("d", mustOps(t, c.script), nil)
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			if got := reconstructXML(t, st, "d"); got != c.want {
				t.Fatalf("after %q:\n got %s\nwant %s", c.script, got, c.want)
			}
			verAfter := docVersion(st, "d")
			if verBefore != verAfter {
				t.Errorf("Update changed the doc version %d -> %d; caches keyed on it would all miss", verBefore, verAfter)
			}
			if info.NodesInserted == 0 && info.NodesDeleted == 0 {
				t.Errorf("info reports no node changes: %+v", info)
			}
			assertMatchesReshred(t, st, "d")
		})
	}
}

func TestUpdateErrors(t *testing.T) {
	st := store.OpenMemory()
	defer st.Close()
	shredInto(t, st, "d", `<a b="v"><c>t</c></a>`)
	bad := []string{
		"delete a",                            // root delete
		"delete a.zzz",                        // no such path
		"insert <x/> before a",                // no siblings of the root
		"insert <x/> into a.@b",               // attributes have no children
		"insert <x/> after a.@b",              // attribute sibling order is fixed
		"replace a.@b with <x/>",              // attr -> element changes ordering
		"delete a.c ; delete a.c",             // second statement finds nothing
		"replace a.c with <ok/> ; delete a.c", // replaced away, then missing
	}
	for _, script := range bad {
		if _, err := st.Update("d", mustOps(t, script), nil); err == nil {
			t.Errorf("Update(%q): expected error", script)
		}
	}
	// Failed scripts must leave the store untouched (all-or-nothing).
	if got, want := reconstructXML(t, st, "d"), `<a b="v"><c>t</c></a>`; got != want {
		t.Fatalf("failed update mutated the store: %s", got)
	}
	if _, err := st.Update("nosuch", mustOps(t, "delete x.y"), nil); err == nil {
		t.Error("Update on a missing document: expected error")
	}
}

func TestUpdateShapeDeltaAndHash(t *testing.T) {
	st := store.OpenMemory()
	defer st.Close()
	shredInto(t, st, "d", `<r><p><q>1</q></p><p><q>2</q><q>3</q></p></r>`)

	v := st.View()
	h0, ok, err := v.ShapeHash("d")
	v.Close()
	if err != nil || !ok {
		t.Fatalf("ShapeHash after shred: ok=%v err=%v", ok, err)
	}
	sh, _ := st.Shape("d")
	if h0 != store.HashShape(sh) {
		t.Fatal("stored hash does not match the stored shape")
	}

	// Shape-preserving update: replace one q with another q (cards stay
	// min=1 max=2) — the hash must not move.
	info, err := st.Update("d", mustOps(t, `replace r.p.q with <q>9</q>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Delta.Kind != update.Unchanged {
		t.Errorf("replace q with q: delta %v, want unchanged", info.Delta)
	}
	v = st.View()
	h1, ok, _ := v.ShapeHash("d")
	v.Close()
	if !ok || h1 != h0 {
		t.Errorf("shape-preserving update moved the hash %x -> %x", h0, h1)
	}

	// Widening update: a new type appears.
	info, err = st.Update("d", mustOps(t, `insert <z/> into r.p`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Delta.Kind != update.Widened || len(info.Delta.TypesAdded) != 1 {
		t.Errorf("insert new type: delta %+v, want widened +1 type", info.Delta)
	}
	v = st.View()
	h2, _, _ := v.ShapeHash("d")
	v.Close()
	if h2 == h1 {
		t.Error("widening update left the hash unchanged")
	}

	// Narrowing update: delete the type again.
	info, err = st.Update("d", mustOps(t, `delete r.p.z`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Delta.Kind != update.Narrowed {
		t.Errorf("delete type: delta %+v, want narrowed", info.Delta)
	}
	assertMatchesReshred(t, st, "d")

	// Drop removes the hash record with the document.
	if err := st.Drop("d"); err != nil {
		t.Fatal(err)
	}
	v = st.View()
	if _, ok, _ := v.ShapeHash("d"); ok {
		t.Error("ShapeHash survives Drop")
	}
	v.Close()
}

// --- randomized differential sweep ---------------------------------

// randFragment builds a small random fragment.
func randFragment(rng *rand.Rand) string {
	b := xmltree.NewBuilder()
	names := []string{"x", "y", "a"}
	b.Elem(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		b.Attr("k", fmt.Sprintf("%d", rng.Intn(9)))
	}
	if rng.Intn(2) == 0 {
		b.Text("frag")
	}
	if rng.Intn(2) == 0 {
		b.Leaf("leaf", fmt.Sprintf("%d", rng.Intn(9)))
	}
	b.End()
	return b.MustDocument().XML(false)
}

// domTypes collects the live rooted type paths of a document.
func domTypes(d *xmltree.Document) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range d.Roots {
		r.Walk(func(n *xmltree.Node) bool {
			if !seen[n.Type] {
				seen[n.Type] = true
				out = append(out, n.Type)
			}
			return true
		})
	}
	return out
}

// domApply replays one statement against an in-memory tree by rebuild —
// the independent oracle for what Update must produce.
func domApply(t *testing.T, d *xmltree.Document, op update.Op) *xmltree.Document {
	t.Helper()
	var frag *xmltree.Document
	if op.XML != "" {
		var err error
		frag, err = xmltree.ParseString(op.XML)
		if err != nil {
			t.Fatalf("oracle fragment: %v", err)
		}
	}
	b := xmltree.NewBuilder()
	var emitPlain func(n *xmltree.Node)
	emitPlain = func(n *xmltree.Node) {
		if n.Attr {
			b.Attr(n.LocalName(), n.Value)
			return
		}
		b.Elem(n.Name)
		if n.Value != "" {
			b.Text(n.Value)
		}
		for _, c := range n.Children {
			emitPlain(c)
		}
		b.End()
	}
	emitFrag := func() { emitPlain(frag.Roots[0]) }
	var emit func(n *xmltree.Node)
	emit = func(n *xmltree.Node) {
		hit := n.Type == op.Path
		if hit {
			switch {
			case op.Kind == update.Delete:
				return
			case op.Kind == update.Replace:
				emitFrag()
				return
			case op.Kind == update.Insert && op.Pos == update.Before:
				emitFrag()
			}
		}
		if n.Attr {
			b.Attr(n.LocalName(), n.Value)
		} else {
			b.Elem(n.Name)
			if n.Value != "" {
				b.Text(n.Value)
			}
			for _, c := range n.Children {
				emit(c)
			}
			if hit && op.Kind == update.Insert && op.Pos == update.Into {
				emitFrag()
			}
			b.End()
		}
		if hit && op.Kind == update.Insert && op.Pos == update.After {
			emitFrag()
		}
	}
	for _, r := range d.Roots {
		emit(r)
	}
	out, err := b.Document()
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	return out
}

// randOp draws a statement valid against the current tree.
func randOp(rng *rand.Rand, d *xmltree.Document) (update.Op, bool) {
	types := domTypes(d)
	for tries := 0; tries < 20; tries++ {
		path := types[rng.Intn(len(types))]
		attr := strings.HasPrefix(path[strings.LastIndex(path, xmltree.TypeSep)+1:], "@")
		root := !strings.Contains(path, xmltree.TypeSep)
		switch rng.Intn(4) {
		case 0:
			if root {
				continue
			}
			return update.Op{Kind: update.Delete, Path: path}, true
		case 1:
			if attr {
				continue
			}
			return update.Op{Kind: update.Insert, Pos: update.Into, Path: path, XML: randFragment(rng)}, true
		case 2:
			if attr || root {
				continue
			}
			pos := update.Before
			if rng.Intn(2) == 0 {
				pos = update.After
			}
			return update.Op{Kind: update.Insert, Pos: pos, Path: path, XML: randFragment(rng)}, true
		default:
			if attr {
				continue
			}
			return update.Op{Kind: update.Replace, Path: path, XML: randFragment(rng)}, true
		}
	}
	return update.Op{}, false
}

// TestUpdateDifferentialSweep is the store-level differential oracle:
// random documents, random multi-statement edit scripts, and for each
// the updated store must reconstruct byte-identically to a fresh shred
// of the DOM-edited document, with an identical inferred shape.
func TestUpdateDifferentialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		doc := random.Doc(rng)
		st := store.OpenMemory()
		shredInto(t, st, "d", doc.XML(false))

		edited := doc
		var script []update.Op
		for n := 1 + rng.Intn(3); n > 0; n-- {
			op, ok := randOp(rng, edited)
			if !ok {
				break
			}
			script = append(script, op)
			edited = domApply(t, edited, op)
		}
		if len(script) == 0 {
			st.Close()
			continue
		}

		beforeShape, err := st.Shape("d")
		if err != nil {
			t.Fatalf("iter %d: shape before the update: %v", iter, err)
		}
		info, err := st.Update("d", script, nil)
		if err != nil {
			t.Fatalf("iter %d: Update(%s): %v\ndoc: %s", iter, update.Format(script), err, doc.XML(false))
		}
		got := reconstructXML(t, st, "d")

		oracle := store.OpenMemory()
		shredInto(t, oracle, "d", edited.XML(false))
		want := reconstructXML(t, oracle, "d")

		if got != want {
			t.Fatalf("iter %d: update diverges from re-shred\nscript: %s\ndoc:  %s\n got: %s\nwant: %s",
				iter, update.Format(script), doc.XML(false), got, want)
		}
		gotShape, err1 := st.Shape("d")
		wantShape, err2 := oracle.Shape("d")
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: shapes unavailable: %v %v", iter, err1, err2)
		}
		if gotShape.String() != wantShape.String() {
			t.Fatalf("iter %d: shape diverges\nscript: %s\ndoc: %s\n got:\n%s\nwant:\n%s",
				iter, update.Format(script), doc.XML(false), gotShape.String(), wantShape.String())
		}
		// The stored hash must equal the re-shred store's stored hash.
		v1, v2 := st.View(), oracle.View()
		h1, ok1, _ := v1.ShapeHash("d")
		h2, ok2, _ := v2.ShapeHash("d")
		v1.Close()
		v2.Close()
		if !ok1 || !ok2 || h1 != h2 {
			t.Fatalf("iter %d: shape hash diverges (%x ok=%v vs %x ok=%v)", iter, h1, ok1, h2, ok2)
		}
		// The delta is Unchanged exactly when the re-shred's shape is the
		// shape the document had before the script.
		if kept := beforeShape.String() == wantShape.String(); (info.Delta.Kind == update.Unchanged) != kept {
			t.Fatalf("iter %d: delta %v, but the shape was kept: %v\nscript: %s\ndoc: %s",
				iter, info.Delta, kept, update.Format(script), doc.XML(false))
		}
		st.Close()
		oracle.Close()
	}
}

// TestUpdateDeltaMatchesCompare replays TestUpdateDifferentialSweep's
// cases and requires the delta an update computes from the rows it
// changed to be update.Compare of the whole shapes before and after.
func TestUpdateDeltaMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	changed := 0
	for iter := 0; iter < iters; iter++ {
		doc := random.Doc(rng)
		st := store.OpenMemory()
		shredInto(t, st, "d", doc.XML(false))
		edited := doc
		var script []update.Op
		for n := 1 + rng.Intn(3); n > 0; n-- {
			op, ok := randOp(rng, edited)
			if !ok {
				break
			}
			script = append(script, op)
			edited = domApply(t, edited, op)
		}
		if len(script) == 0 {
			st.Close()
			continue
		}
		before, err := st.Shape("d")
		if err != nil {
			t.Fatal(err)
		}
		info, err := st.Update("d", script, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		after, err := st.Shape("d")
		if err != nil {
			t.Fatal(err)
		}
		if want := update.Compare(before, after); !reflect.DeepEqual(info.Delta, want) {
			t.Fatalf("iter %d: delta %+v, want %+v\nscript: %s", iter, info.Delta, want, update.Format(script))
		}
		if info.Delta.Kind != update.Unchanged {
			changed++
		}
		st.Close()
	}
	if changed == 0 {
		t.Error("no case changed the shape")
	}
}

// --- crash sweep over an update workload ----------------------------

// runUpdateCrashWorkload shreds a document and applies three update
// scripts (insert, delete+replace, sibling insert forcing re-keying),
// each a separate commit.
func runUpdateCrashWorkload(fs *kvstore.FaultFS, commit func()) error {
	st, err := store.Open("crash.db", store.WithKVOptions(&kvstore.Options{CachePages: 16, FS: fs}))
	if err != nil {
		return err
	}
	if _, err := st.Shred("doc", strings.NewReader(crashSweepDoc(30, "uu")), nil); err != nil {
		return err
	}
	commit()
	scripts := []string{
		`insert <stock>7</stock> into catalog.item`,
		`delete catalog.item.desc ; replace catalog.item.price with <price>0.00</price>`,
		`insert <sku>s</sku> before catalog.item.name`,
	}
	for _, src := range scripts {
		ops, err := update.Parse(src)
		if err != nil {
			return err
		}
		if _, err := st.Update("doc", ops, nil); err != nil {
			return err
		}
		commit()
	}
	if err := st.Close(); err != nil {
		return err
	}
	commit()
	return nil
}

// TestCrashSweepUpdateWorkload proves update atomicity under crashes:
// at every write index × {lost, torn, dropped} the reopened store is
// byte-identical to the adjacent pre- or post-commit image — an update
// either happened entirely or not at all, never partially.
func TestCrashSweepUpdateWorkload(t *testing.T) {
	fs := kvstore.NewFaultFS()
	oracle := crashOracle{images: [][]byte{emptyStoreImage(t)}}
	if err := runUpdateCrashWorkload(fs, func() {
		oracle.images = append(oracle.images, fs.FileBytes("crash.db"))
	}); err != nil {
		t.Fatalf("oracle run failed: %v", err)
	}
	oracle.writes = fs.Writes()
	if oracle.writes == 0 {
		t.Fatal("oracle run performed no writes")
	}
	variants := []struct {
		tear int
		drop bool
	}{
		{tear: 0, drop: false},
		{tear: 1234, drop: false},
		{tear: 0, drop: true},
	}
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for idx := int64(0); idx < oracle.writes; idx += step {
		for _, vr := range variants {
			fs := kvstore.NewFaultFS()
			fs.CrashAfter(idx, vr.tear, vr.drop)
			completed := 0
			err := runUpdateCrashWorkload(fs, func() { completed++ })
			if err == nil || !fs.Crashed() {
				t.Fatalf("idx %d: crash never fired (err=%v)", idx, err)
			}
			st, err := reopenAfterCrash(fs)
			if err != nil {
				t.Fatalf("idx %d (tear %d, drop %v): reopen: %v", idx, vr.tear, vr.drop, err)
			}
			img := fs.FileBytes("crash.db")
			if !bytes.Equal(img, oracle.images[completed]) && !bytes.Equal(img, oracle.images[completed+1]) {
				t.Fatalf("idx %d (tear %d, drop %v): store is neither the pre- nor the post-commit image of update step %d",
					idx, vr.tear, vr.drop, completed+1)
			}
			if err := readEverything(st); err != nil {
				t.Fatalf("idx %d: recovered store unreadable: %v", idx, err)
			}
			st.Close()
		}
	}
}

// TestUpdateWritesFewerPagesThanReshred prices dirty-subtree shredding in
// pages, not time: a three-statement script touching O(1) regions of an
// XMark document must write at least five times fewer pages than the
// alternative a store without an update path has — drop the document and
// shred the edited XML from scratch. Both stores start from the same
// shred, and the baseline shreds exactly the document the patch produced.
func TestUpdateWritesFewerPagesThanReshred(t *testing.T) {
	const script = `insert <category id="newcat"><name>patched</name></category> into site.categories ;
insert <person id="newperson"><name>New Person</name><emailaddress>new@example.com</emailaddress></person> into site.people ;
replace site.catgraph with <catgraph><edge from="category0" to="category0"/></catgraph>`
	xml := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42}).XML(false)
	openShredded := func(name string) *store.Store {
		st, err := store.Open(filepath.Join(t.TempDir(), name), store.WithCachePages(128))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		shredInto(t, st, "d", xml)
		return st
	}

	patched := openShredded("patch.db")
	before := patched.Stats().BlocksWritten
	if _, err := patched.Update("d", mustOps(t, script), nil); err != nil {
		t.Fatal(err)
	}
	patchPages := patched.Stats().BlocksWritten - before
	edited := reconstructXML(t, patched, "d")

	reshredded := openShredded("reshred.db")
	before = reshredded.Stats().BlocksWritten
	if err := reshredded.Drop("d"); err != nil {
		t.Fatal(err)
	}
	shredInto(t, reshredded, "d", edited)
	reshredPages := reshredded.Stats().BlocksWritten - before

	if patchPages == 0 {
		t.Fatal("patch wrote no pages")
	}
	if patchPages*5 > reshredPages {
		t.Errorf("patch wrote %d pages, drop + re-shred %d: want at least 5x fewer", patchPages, reshredPages)
	}
	t.Logf("patch %d pages, drop + re-shred %d pages", patchPages, reshredPages)
}

// TestUpdateAllocs guards the allocations of a shape-keeping PATCH: the
// serve benchmark's catgraph script — the category graph replaced by one
// random edge per category — parsed and applied to XMark sf 0.05 in a
// memory store. Before the overlay was one ordered arena and the
// fragment was shredded straight from its scan (commit 60534df) it took
// 3 890 allocations; the bound is 40 % of that.
func TestUpdateAllocs(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 42})
	st := store.OpenMemory()
	defer st.Close()
	shredInto(t, st, "d", doc.XML(false))
	cats := len(doc.NodesOfType("site.categories.category"))
	rng := rand.New(rand.NewSource(7))
	ring := make([]string, 8)
	for i := range ring {
		var sb strings.Builder
		sb.WriteString("replace site.catgraph with <catgraph>")
		for j := 0; j < cats; j++ {
			fmt.Fprintf(&sb, `<edge from="category%d" to="category%d"/>`, rng.Intn(cats), rng.Intn(cats))
		}
		sb.WriteString("</catgraph>")
		ring[i] = sb.String()
	}
	i := 0
	allocs := testing.AllocsPerRun(16, func() {
		ops, err := update.Parse(ring[i%len(ring)])
		if err != nil {
			t.Fatal(err)
		}
		i++
		if _, err := st.Update("d", ops, nil); err != nil {
			t.Fatal(err)
		}
	})
	const parent = 3890
	t.Logf("%d categories: %.0f allocations per update", cats, allocs)
	if allocs > 0.4*parent {
		t.Errorf("catgraph update: %.0f allocations, want <= %.0f", allocs, 0.4*parent)
	}
}
