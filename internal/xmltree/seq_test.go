package xmltree

import (
	"fmt"
	"testing"
)

// TestSeqEmptyValuesKeysOnly: a sequence whose values are all empty, as
// an element type with only children has, allocates its key arena and
// nothing for values; when its 4-byte end offsets were kept per vertex
// they took a fifth of the join path's bytes. A value arriving after
// empty ones makes the value arena then, and every vertex still reads
// its own value.
func TestSeqEmptyValuesKeysOnly(t *testing.T) {
	const n = 1000
	key := AppendKey(nil, Dewey{1, 2, 3})
	build := func() *Seq {
		s := NewSeq("a.b.c")
		for i := 0; i < n; i++ {
			s.Append(key, nil)
		}
		return s
	}
	s := build()
	if s.vals != nil || s.ends != nil {
		t.Fatalf("all-empty sequence holds %d value bytes and %d end offsets", cap(s.vals), cap(s.ends))
	}
	for i := 0; i < n; i++ {
		if v := s.Value(i); len(v) != 0 {
			t.Fatalf("vertex %d value = %q, want empty", i, v)
		}
	}
	// NewSeq's Seq, then one allocation per doubling of the key arena.
	want := 1.0
	for c := 0; c < n*len(key); c = 2*c + 64*len(key) {
		want++
	}
	if allocs := testing.AllocsPerRun(10, func() { build() }); allocs > want {
		t.Errorf("building an all-empty sequence of %d vertices allocates %.0f times, want %.0f (the Seq and its key arena)", n, allocs, want)
	}

	for i := 0; i < n; i++ {
		if i%3 == 2 {
			s.Append(key, []byte(fmt.Sprint(i)))
		} else {
			s.Append(key, nil)
		}
	}
	for i := 0; i < 2*n; i++ {
		want := ""
		if i >= n && (i-n)%3 == 2 {
			want = fmt.Sprint(i - n)
		}
		if got := string(s.Value(i)); got != want {
			t.Fatalf("vertex %d value = %q, want %q", i, got, want)
		}
	}
}
