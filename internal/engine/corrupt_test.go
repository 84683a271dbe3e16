package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/kvstore"
	"xmorph/internal/store"
)

// invertGuard is the benchmark mix's store-backed class: its up-axis
// joins send it to the closest joins over whole type sequences.
const invertGuard = "CAST MORPH bidder [ open_auction [ itemref ] ]"

// bidderType is a type invertGuard reads.
const bidderType = "site.open_auctions.open_auction.bidder"

// corruptLeafEngine shreds an XMark document into a file-backed store,
// breaks the first entry of the last leaf (in key order) holding nodes of
// typ in the store file, and reopens the store behind an engine. The leaf
// is one a scan of typ enters by crossing, past a leaf of typ it reads
// whole.
func corruptLeafEngine(t *testing.T, typ string) *Engine {
	t.Helper()
	fs := kvstore.NewFaultFS()
	open := func() *store.Store {
		st, err := store.Open("f.db", store.WithKVOptions(&kvstore.Options{FS: fs}))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	xml := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 1}).XML(false)
	if _, err := st.Shred("main", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	docID, _, err := v.DocVersion("main")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := v.Doc("main")
	if err != nil {
		t.Fatal(err)
	}
	typeID := -1
	for i, tp := range doc.Types() {
		if tp == typ {
			typeID = i
		}
	}
	v.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if typeID < 0 {
		t.Fatalf("no type %s", typ)
	}

	// A node key is 'N' docID typeID dewey… chunk; a leaf's first entry
	// is its key length at byte 7 and its key from byte 9.
	prefix := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32([]byte{'N'}, docID), uint32(typeID))
	img := fs.FileBytes("f.db")
	last, leaves := -1, 0
	var lastKey []byte
	for at := 0; at+kvstore.PageSize <= len(img); at += kvstore.PageSize {
		page := img[at : at+kvstore.PageSize]
		if page[0] != 1 || binary.BigEndian.Uint16(page[1:]) == 0 {
			continue // not a leaf with entries
		}
		key := page[9 : 9+int(binary.BigEndian.Uint16(page[7:]))]
		if bytes.HasPrefix(key, prefix) {
			leaves++
			if bytes.Compare(key, lastKey) > 0 {
				last, lastKey = at, key
			}
		}
	}
	if leaves < 2 {
		t.Fatalf("type %s starts %d leaves, want two or more", typ, leaves)
	}
	binary.BigEndian.PutUint16(img[last+7:], 0xffff)
	fs.WriteFile("f.db", img)

	st = open()
	t.Cleanup(func() { st.Close() })
	return New(st)
}

// TestCorruptLeafFailsStoreBackedReads: a corrupt leaf of a type the
// store-backed executor and the whole-tree query path read is a storage
// error — Run and Query return an ErrStorage, and the server answers 500
// before the first byte — never a short sequence served as wrong XML.
func TestCorruptLeafFailsStoreBackedReads(t *testing.T) {
	eng := corruptLeafEngine(t, bidderType)
	ctx := context.Background()

	var out strings.Builder
	res, err := eng.Run(ctx, "main", invertGuard, RunOpts{StreamTo: &out})
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("Run over a corrupt leaf: err %v (%d bytes written), want an ErrStorage", err, out.Len())
	}
	if res != nil {
		t.Errorf("Run over a corrupt leaf returned a result")
	}
	if out.Len() != 0 {
		t.Errorf("Run over a corrupt leaf wrote %d bytes", out.Len())
	}

	query := `for $b in doc("main")//bidder return count($b/open_auction/itemref)`
	if _, err := eng.Query(ctx, "main", invertGuard, query, QueryOpts{}); !errors.Is(err, ErrStorage) {
		t.Errorf("Query over a corrupt leaf: err %v, want an ErrStorage", err)
	}
	// The streamed executor reads the same leaf through its scans.
	if _, err := eng.Run(ctx, "main", "CAST MORPH open_auction [ bidder ]", RunOpts{StreamTo: &out}); !errors.Is(err, ErrStorage) {
		t.Errorf("streamed Run over a corrupt leaf: err %v, want an ErrStorage", err)
	}

	ts := httptest.NewServer(NewServer(eng, ServerConfig{}).Handler())
	defer ts.Close()
	for _, body := range []map[string]any{
		{"doc": "main", "guard": invertGuard, "format": "xml"},
		{"doc": "main", "guard": invertGuard},
		{"doc": "main", "guard": invertGuard, "query": query},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/query", body)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "corrupt") {
			t.Errorf("%v: status %d, body %.120q; want 500 naming the corruption", body, resp.StatusCode, data)
		}
	}
}
