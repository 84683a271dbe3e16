package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/update"
)

// imageHash hashes the store's ordered (key, value) content, leaving out
// the records of the tables named in except.
func imageHash(t *testing.T, s *Store, except ...byte) string {
	t.Helper()
	h := sha256.New()
	n := 0
	if err := s.db.AscendPrefix(nil, func(k, v []byte) bool {
		if slices.Contains(except, k[0]) {
			return true
		}
		var l [8]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(k)))
		binary.BigEndian.PutUint32(l[4:], uint32(len(v)))
		h.Write(l[:])
		h.Write(k)
		h.Write(v)
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d:%x", n, h.Sum(nil)[:8])
}

// TestStoredBytesPinned pins the store image — every key and value a
// shred and an update leave behind — so that a change to the ingest
// path (the scan, the shredder, the key codec, the tokenizer under them)
// shows as a diff here before it shows as an unreadable store. The
// image hashes were retaken when the shape became rows; rest hashes
// every record but the shape rows and the hash record, and was taken
// before that change, so it shows the node records, the type registry
// and the document entries kept every byte.
func TestStoredBytesPinned(t *testing.T) {
	const parityDoc = `<data><book><title>T1</title><author><name>N1</name></author></book><book><title>T2</title><author><name>N2</name></author></book></data>`
	// The CI parity smoke's PATCH script.
	const parityScript = `insert <book><title>T3</title><author><name>N3</name></author></book> into data ; delete data.book.author.name ; replace data.book.title with <title>patched</title>`
	// New element and attribute types at every insert position: updates
	// number a fragment's types in document order.
	const newTypes = `insert <n x="1" y="2"><m z="3"><k/></m></n> before data.book.author ; replace data with <q r="1"><s t="2">u</s></q>`
	cases := []struct {
		name, doc  string
		scripts    []string
		want, rest []string // after the shred, then after each script
	}{
		{"xmark sf 0.02 seed 1", xmark.Generate(xmark.Config{Factor: 0.02, Seed: 1}).XML(false), nil,
			[]string{"30827:17b32c1c2e0f3667"},
			[]string{"30721:6c70968d1585bdb2"}},
		{"fig1a", fig1a, []string{parityScript, newTypes},
			[]string{"22:4550cb305eabf22f", "22:a6870c0f0a9067cf", "11:df3e0bfdca90f622"},
			[]string{"16:9c8807f7eae3f74e", "17:75b65a22ed4a7571", "7:ca4544a458fc366c"}},
		{"parity", parityDoc, []string{parityScript},
			[]string{"17:3b96676ccae4d48c", "17:134c56717bc63c18"},
			[]string{"12:d253973cc9a30039", "13:a7a9118ae9d136ad"}},
		{"mid-shred flushes", "<doc>" + strings.Repeat(`<item k="v"><name>n</name><desc>`+strings.Repeat("y", 2500)+"</desc></item>", 600) + "</doc>", nil,
			[]string{"3008:d5f0a944c215e72d"},
			[]string{"3004:3bf32b39d467a05e"}},
	}
	for _, c := range cases {
		s := OpenMemory()
		if _, err := s.Shred("d", strings.NewReader(c.doc), nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, rest := []string{imageHash(t, s)}, []string{imageHash(t, s, 'A', 'H')}
		for _, src := range c.scripts {
			ops, err := update.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update("d", ops, nil); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got = append(got, imageHash(t, s))
			rest = append(rest, imageHash(t, s, 'A', 'H'))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: store image changed:\n got %v\nwant %v", c.name, got, c.want)
		}
		if fmt.Sprint(rest) != fmt.Sprint(c.rest) {
			t.Errorf("%s: records other than the shape's changed:\n got %v\nwant %v", c.name, rest, c.rest)
		}
		s.Close()
	}
}
