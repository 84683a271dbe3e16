package store_test

import (
	"bytes"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/store"
)

// FuzzShred feeds arbitrary bytes to the shredder: Shred must either
// reject the input with an error or store a document that round-trips —
// every node reachable through NodesOfType, the counts agreeing with
// ShredInfo and the Size scan, and Reconstruct rebuilding a tree —
// without ever panicking.
func FuzzShred(f *testing.F) {
	f.Add([]byte("<catalog><item id=\"a\"><name>x</name></item><item>y</item></catalog>"))
	f.Add([]byte("<a><b/><b attr=\"1\">text</b><c>mixed<d/>tail</c></a>"))
	f.Add([]byte("not xml at all"))
	f.Add([]byte("<unclosed><tag>"))
	f.Add([]byte("<a xmlns:p=\"urn:x\"><p:b>ns</p:b></a>"))
	f.Add([]byte("<a>\xff\xfe bad utf8</a>"))
	f.Add([]byte("<a><!-- comment --><?pi data?><![CDATA[cd]]></a>"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := store.OpenMemory()
		defer st.Close()
		info, err := st.Shred("doc", bytes.NewReader(data), nil)
		if err != nil {
			return // rejected; that's a valid outcome
		}
		d, err := st.Doc("doc")
		if err != nil {
			t.Fatalf("Shred succeeded but Doc failed: %v", err)
		}
		nodes := 0
		for _, typ := range d.Types() {
			nodes += len(d.NodesOfType(typ))
		}
		if nodes != info.Nodes {
			t.Fatalf("NodesOfType found %d nodes, ShredInfo reported %d", nodes, info.Nodes)
		}
		if sz := d.Size(); sz != info.Nodes {
			t.Fatalf("Size scan counted %d nodes, ShredInfo reported %d", sz, info.Nodes)
		}
		if _, err := d.Reconstruct(); err != nil {
			t.Fatalf("stored document does not reconstruct: %v", err)
		}
	})
}

// TestShredXMarkSeed81RoundTrip: XMark sf 0.05 seed 81 (as 116, 204 and
// 309) lays two ~1.4 KB text chunks side by side in one leaf at the
// moment it splits — the B+tree's byte-midpoint split used to leave the
// left half over a page and the shred failed with "node overflows page
// (4098 bytes)". The document must shred and read back as generated.
func TestShredXMarkSeed81RoundTrip(t *testing.T) {
	want := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 81}).XML(false)
	st := store.OpenMemory()
	defer st.Close()
	shredInto(t, st, "d", want)
	if reconstructXML(t, st, "d") != want {
		t.Error("reconstruction differs from the generated document")
	}
}
