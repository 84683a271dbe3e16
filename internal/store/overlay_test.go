package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mapOverlay is the model the overlay is held to: pending puts and
// deletes in two maps over a base map, a scan filtering and sorting the
// union on every call.
type mapOverlay struct {
	base, puts map[string][]byte
	dels       map[string]bool
}

func (m *mapOverlay) put(k, v []byte) {
	delete(m.dels, string(k))
	m.puts[string(k)] = append([]byte(nil), v...)
}

func (m *mapOverlay) del(k []byte) {
	delete(m.puts, string(k))
	m.dels[string(k)] = true
}

// record prints a record as its key and its value's length and checksum.
func record(k, v []byte) string { return fmt.Sprintf("%x=%d:%08x", k, len(v), crc32.ChecksumIEEE(v)) }

// scan returns the first limit records under prefix, all of them for a
// negative limit.
func (m *mapOverlay) scan(prefix []byte, limit int) []string {
	var keys []string
	for k := range m.base {
		if _, put := m.puts[k]; !put && !m.dels[k] && bytes.HasPrefix([]byte(k), prefix) {
			keys = append(keys, k)
		}
	}
	for k := range m.puts {
		if bytes.HasPrefix([]byte(k), prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if limit >= 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		v, ok := m.puts[k]
		if !ok {
			v = m.base[k]
		}
		out[i] = record([]byte(k), v)
	}
	return out
}

// TestOverlayMatchesMapModel runs random interleavings of puts, chunked
// puts, deletes and scans against the overlay and against mapOverlay,
// over one base snapshot, and requires every scan and the final batch to
// agree. Keys are drawn from heads that are prefixes of one another, each
// with a 2-byte chunk suffix, so keys differ only in that suffix and a
// prefix can be a whole key; a scan may stop early, or delete each
// record it visits as it goes, as an update's subtree delete does.
func TestOverlayMatchesMapModel(t *testing.T) {
	heads := [][]byte{{'N', 0}, {'N', 0, 1}, {'N', 0, 1, 2}, {'N', 0, 0}, {'N', 1}}
	var universe [][]byte
	for _, h := range heads {
		for c := uint16(0); c < 3; c++ {
			universe = append(universe, binary.BigEndian.AppendUint16(slices.Clip(h), c))
		}
	}
	rng := rand.New(rand.NewSource(1))
	value := func() []byte {
		v := make([]byte, rng.Intn(4))
		rng.Read(v)
		return v
	}
	prefix := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return universe[rng.Intn(len(universe))] // a whole key
		case 1:
			return heads[rng.Intn(len(heads))]
		case 2:
			k := universe[rng.Intn(len(universe))]
			return k[:rng.Intn(len(k)+1)]
		default:
			return nil
		}
	}
	for iter := 0; iter < 300; iter++ {
		st := OpenMemory()
		model := &mapOverlay{base: map[string][]byte{}, puts: map[string][]byte{}, dels: map[string]bool{}}
		var keys, vals [][]byte
		for _, k := range universe {
			if rng.Intn(2) == 0 {
				v := value()
				keys, vals = append(keys, k), append(vals, v)
				model.base[string(k)] = v
			}
		}
		if len(keys) > 0 {
			if err := st.db.PutBatch(keys, vals); err != nil {
				t.Fatal(err)
			}
		}
		v := st.View()
		u := &updater{base: v.snap}
		var log []string
		for step := 0; step < 60; step++ {
			k := universe[rng.Intn(len(universe))]
			switch op := rng.Intn(10); {
			case op < 3:
				val := value()
				log = append(log, fmt.Sprintf("put %x", k))
				u.pending.put(k, val)
				model.put(k, val)
			case op < 4:
				// A chunked value under a head: 1 to 3 chunks, so its keys
				// are some of the head's.
				head := heads[rng.Intn(len(heads))]
				val := bytes.Repeat([]byte{byte(step)}, 1+rng.Intn(3*chunkSize))
				log = append(log, fmt.Sprintf("putChunks %x (%d bytes)", head, len(val)))
				if err := u.pending.putChunks(head, val); err != nil {
					t.Fatal(err)
				}
				arena, recs, err := appendChunks(nil, nil, head, val)
				if err != nil {
					t.Fatal(err)
				}
				ks, vs := appendRecords(nil, nil, arena, recs)
				for i := range ks {
					model.put(ks[i], vs[i])
				}
			case op < 6:
				log = append(log, fmt.Sprintf("del %x", k))
				u.pending.del(k)
				model.del(k)
			default:
				p, limit, deleting := prefix(), -1, op == 9
				if op == 8 {
					limit = rng.Intn(4)
				}
				log = append(log, fmt.Sprintf("scan %x limit %d deleting %v", p, limit, deleting))
				want := model.scan(p, limit)
				var got []string
				var visited [][]byte
				if err := u.scanPrefix(p, func(k, v []byte) bool {
					if limit >= 0 && len(got) == limit {
						return false
					}
					got = append(got, record(k, v))
					if deleting {
						visited = append(visited, append([]byte(nil), k...))
						u.pending.del(k)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for _, k := range visited {
					model.del(k)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d: scan %x:\n got %q\nwant %q\nafter:\n%s", iter, p, got, want, strings.Join(log, "\n"))
				}
			}
		}
		// The batch: tombstones and puts each in key order, as the map
		// overlay's two key sets sorted.
		var dels, puts []string
		c := u.pending.seek(nil)
		for rec, ok := c.next(); ok; rec, ok = c.next() {
			if rec.vl == tombstone {
				dels = append(dels, fmt.Sprintf("%x", u.pending.key(rec)))
			} else {
				puts = append(puts, record(u.pending.key(rec), u.pending.val(rec)))
			}
		}
		var wantDels, wantPuts []string
		for _, k := range sortedKeys(model.dels) {
			wantDels = append(wantDels, fmt.Sprintf("%x", k))
		}
		for _, k := range sortedKeys(model.puts) {
			wantPuts = append(wantPuts, record([]byte(k), model.puts[k]))
		}
		if !slices.Equal(dels, wantDels) || !slices.Equal(puts, wantPuts) {
			t.Fatalf("iter %d: batch deletes %q puts %q, want %q and %q\nafter:\n%s", iter, dels, puts, wantDels, wantPuts, strings.Join(log, "\n"))
		}
		v.Close()
		st.Close()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
