package closest

import (
	"math/rand"
	"testing"

	"xmorph/internal/xmltree"
)

// groupedEqualsMap checks Grouped against the reference grouping built
// from the naive closest predicate.
func groupedEqualsMap(t *testing.T, vs, ws []*xmltree.Node) {
	t.Helper()
	g := GroupJoin(vs, ws, nil)
	total := 0
	for i, v := range vs {
		var exp []int32
		for j, w := range ws {
			if IsClosest(v, w) {
				exp = append(exp, int32(j))
			}
		}
		got := g.Of(i)
		if len(got) != len(exp) {
			t.Fatalf("Of(%v) = %d partners, want %d", v.Dewey, len(got), len(exp))
		}
		for k := range got {
			if got[k] != exp[k] {
				t.Fatalf("Of(%v)[%d] = %v, want %v", v.Dewey, k, ws[got[k]].Dewey, ws[exp[k]].Dewey)
			}
		}
		total += len(got)
	}
	if g.Pairs() != total {
		t.Errorf("Pairs = %d, want %d", g.Pairs(), total)
	}
}

func TestGroupJoinMatchesJoin(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	types := d.Types()
	for _, t1 := range types {
		for _, t2 := range types {
			groupedEqualsMap(t, d.NodesOfType(t1), d.NodesOfType(t2))
		}
	}
}

func TestGroupJoinRandomDocs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		types := d.Types()
		for _, t1 := range types {
			for _, t2 := range types {
				groupedEqualsMap(t, d.NodesOfType(t1), d.NodesOfType(t2))
			}
		}
	}
}

func TestGroupJoinEmptyInputs(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	books := d.NodesOfType("data.book")
	if g := GroupJoin(nil, books, nil); g.Pairs() != 0 {
		t.Error("empty left input produced pairs")
	}
	g := GroupJoin(books, nil, nil)
	if g.Pairs() != 0 {
		t.Error("empty right input produced pairs")
	}
	for i := range books {
		if got := g.Of(i); len(got) != 0 {
			t.Errorf("Of on empty join = %v", got)
		}
	}
	var nilG *Grouped
	if nilG.Of(0) != nil {
		t.Error("nil Grouped must return no partners")
	}
}

// TestGroupJoinReflexive: a same-type join groups each node with itself.
func TestGroupJoinReflexive(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	books := d.NodesOfType("data.book")
	g := GroupJoin(books, books, nil)
	for i, b := range books {
		got := g.Of(i)
		if len(got) != 1 || got[0] != int32(i) {
			t.Errorf("reflexive Of(%v) = %v", b.Dewey, got)
		}
	}
}

// TestGroupJoinRecorder: grouping must feed the recorder exactly like
// the streaming join does.
func TestGroupJoinRecorder(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	books := d.NodesOfType("data.book")
	titles := d.NodesOfType("data.book.title")
	rec := &Recorder{}
	g := GroupJoin(books, titles, rec)
	joins, candidates, pairs := rec.Snapshot()
	if joins != 1 || candidates != int64(len(books)+len(titles)) || int(pairs) != g.Pairs() {
		t.Errorf("recorder = %d joins, %d candidates, %d pairs (grouped %d)",
			joins, candidates, pairs, g.Pairs())
	}
}

// TestGroupJoinOfZeroAllocs guards the CSR design point: looking up a
// parent's partners in a built join allocates nothing.
func TestGroupJoinOfZeroAllocs(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	books := d.NodesOfType("data.book")
	titles := d.NodesOfType("data.book.title")
	g := GroupJoin(books, titles, nil)
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		for i := range books {
			sink += len(g.Of(i))
		}
	})
	if allocs != 0 {
		t.Errorf("Grouped.Of allocates %v per run, want 0", allocs)
	}
}
