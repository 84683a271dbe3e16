package store

import (
	"errors"
	"strings"
	"testing"

	"xmorph/internal/kvstore"
)

// rowsFuzzDoc has roots, leaves, attributes, and parents of one and of
// several children.
const rowsFuzzDoc = `<r a="1"><p><q/><s b="2"/></p><p><q/><q/></p><t/></r>`

// encodeRowRecords packs records as FuzzShapeRows reads them: a key
// length byte, a value length byte, the key after 'A' docID, the value.
func encodeRowRecords(keys, vals [][]byte) []byte {
	var out []byte
	for i := range keys {
		out = append(out, byte(len(keys[i])), byte(len(vals[i])))
		out = append(append(out, keys[i]...), vals[i]...)
	}
	return out
}

// FuzzShapeRows loads arbitrary shape rows under a valid type registry:
// the load yields a valid shape over the registry's types or fails with
// an ErrStorage error, and never panics.
func FuzzShapeRows(f *testing.F) {
	seed := OpenMemory()
	if _, err := seed.Shred("d", strings.NewReader(rowsFuzzDoc), nil); err != nil {
		f.Fatal(err)
	}
	var keys, vals [][]byte
	if err := seed.db.AscendPrefix([]byte{'A'}, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k[5:]...))
		vals = append(vals, append([]byte(nil), v...))
		return true
	}); err != nil {
		f.Fatal(err)
	}
	seed.Close()
	valid := encodeRowRecords(keys, vals)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(encodeRowRecords(keys[1:], vals[1:]))
	f.Add(encodeRowRecords(append(keys, keys[0]), append(vals, []byte{0, 1, 0})))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st := OpenMemory()
		defer st.Close()
		if _, err := st.Shred("d", strings.NewReader(rowsFuzzDoc), nil); err != nil {
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
		var b kvstore.Batch
		if err := st.db.AscendPrefix(rowPrefix(id), func(k, _ []byte) bool {
			b.Delete(append([]byte(nil), k...))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for len(data) >= 2 {
			kl, vl := int(data[0])%12, int(data[1])
			data = data[2:]
			kl = min(kl, len(data))
			key := append(rowPrefix(id), data[:kl]...)
			data = data[kl:]
			vl = min(vl, len(data))
			b.Put(key, append([]byte(nil), data[:vl]...))
			data = data[vl:]
		}
		if err := st.db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		v = st.View()
		defer v.Close()
		sh, err := v.Shape("d")
		if err != nil {
			if !errors.Is(err, ErrStorage) {
				t.Fatalf("load failed outside ErrStorage: %v", err)
			}
			return
		}
		if err := sh.Validate(); err != nil {
			t.Fatalf("loaded an invalid shape: %v\n%s", err, sh)
		}
		reg := newTypeRegistry(types)
		for _, typ := range sh.Types() {
			if _, ok := reg.typeID[typ]; !ok {
				t.Fatalf("loaded type %q outside the registry", typ)
			}
		}
	})
}
