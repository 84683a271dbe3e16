package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/update"
)

// imageHash hashes the store's full ordered (key, value) content.
func imageHash(t *testing.T, s *Store) string {
	t.Helper()
	h := sha256.New()
	n := 0
	if err := s.db.AscendPrefix(nil, func(k, v []byte) bool {
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
// hashes were taken at PR 15's parent commit, before the shredder and
// the update path's fragment insertion became one handler.
func TestStoredBytesPinned(t *testing.T) {
	const parityDoc = `<data><book><title>T1</title><author><name>N1</name></author></book><book><title>T2</title><author><name>N2</name></author></book></data>`
	// The CI parity smoke's PATCH script.
	const parityScript = `insert <book><title>T3</title><author><name>N3</name></author></book> into data ; delete data.book.author.name ; replace data.book.title with <title>patched</title>`
	// New element and attribute types at every insert position: updates
	// number a fragment's types in document order.
	const newTypes = `insert <n x="1" y="2"><m z="3"><k/></m></n> before data.book.author ; replace data with <q r="1"><s t="2">u</s></q>`
	cases := []struct {
		name, doc string
		scripts   []string
		want      []string // after the shred, then after each script
	}{
		{"xmark sf 0.02 seed 1", xmark.Generate(xmark.Config{Factor: 0.02, Seed: 1}).XML(false), nil,
			[]string{"30747:4cb0c3e470b6d33c"}},
		{"fig1a", fig1a, []string{parityScript, newTypes},
			[]string{"18:8e308850ae92184e", "19:56d071b0c02e2db4", "9:cb721df0474fd973"}},
		{"parity", parityDoc, []string{parityScript},
			[]string{"14:9de1e2b990f07208", "15:f99fd9685f5867d3"}},
		{"mid-shred flushes", "<doc>" + strings.Repeat(`<item k="v"><name>n</name><desc>`+strings.Repeat("y", 2500)+"</desc></item>", 600) + "</doc>", nil,
			[]string{"3006:8de2b155c519fc2c"}},
	}
	for _, c := range cases {
		s := OpenMemory()
		if _, err := s.Shred("d", strings.NewReader(c.doc), nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := []string{imageHash(t, s)}
		for _, src := range c.scripts {
			ops, err := update.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update("d", ops, nil); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got = append(got, imageHash(t, s))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: store image changed:\n got %v\nwant %v", c.name, got, c.want)
		}
		s.Close()
	}
}
