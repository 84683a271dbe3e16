// Package closest implements the closest relation of Definition 2, the
// closest graph of Definition 1, and the Dewey-number closest join of
// Section VII.
//
// Two vertices are closest when their tree distance equals the type
// distance of their types (the minimum distance between any two vertices of
// those types). With rooted type paths this has a purely structural
// characterization: v and w are closest if and only if their Dewey numbers
// share a prefix exactly as long as the common label prefix of their type
// paths — which is what lets the join run as a merge over two
// document-ordered node sequences.
package closest

import (
	"strings"
	"sync/atomic"

	"xmorph/internal/xmltree"
)

// Recorder accumulates closest-join statistics: joins performed,
// candidate nodes scanned on both inputs, and closest pairs kept. A nil
// Recorder is a no-op that adds no allocations on the join hot path (a
// benchmark guards this), so the recording variants stay compiled into
// the renderer. Fields are updated atomically: a Recorder is handed in
// by pointer and the package cannot see who else holds it. Each
// renderer runs its joins on one goroutine today, and the hot path pays
// for the nil check, not for the atomic add.
type Recorder struct {
	Joins      int64
	Candidates int64
	Pairs      int64
}

// record folds one join's inputs and output into the totals.
func (r *Recorder) record(vs, ws, pairs int) {
	if r == nil {
		return
	}
	atomic.AddInt64(&r.Joins, 1)
	atomic.AddInt64(&r.Candidates, int64(vs+ws))
	atomic.AddInt64(&r.Pairs, int64(pairs))
}

// Snapshot returns a consistent-enough copy of the totals.
func (r *Recorder) Snapshot() (joins, candidates, pairs int64) {
	if r == nil {
		return 0, 0, 0
	}
	return atomic.LoadInt64(&r.Joins), atomic.LoadInt64(&r.Candidates), atomic.LoadInt64(&r.Pairs)
}

// typeLCP returns the number of leading path components shared by the two
// rooted type paths. The least common ancestor of a closest pair sits at
// exactly this Dewey depth. It walks both strings component-wise without
// allocating — it runs once per closest join, on the render hot path.
func typeLCP(t1, t2 string) int {
	l := 0
	for {
		s1, r1, more1 := cutComponent(t1)
		s2, r2, more2 := cutComponent(t2)
		if s1 != s2 {
			return l
		}
		l++
		if !more1 || !more2 {
			return l
		}
		t1, t2 = r1, r2
	}
}

// cutComponent splits off the leading type-path component; more reports
// whether a separator (and hence a rest) followed it.
func cutComponent(s string) (head, rest string, more bool) {
	if i := strings.Index(s, xmltree.TypeSep); i >= 0 {
		return s[:i], s[i+len(xmltree.TypeSep):], true
	}
	return s, "", false
}

// IsClosest reports whether v and w are closest (Definition 2): their tree
// distance equals the type distance of their types.
func IsClosest(v, w *xmltree.Node) bool {
	return v.Distance(w) == xmltree.TypeDistance(v.Type, w.Type)
}

// Pair is one closest pair produced by a join. V is from the left (parent)
// sequence and W from the right (child) sequence.
type Pair struct {
	V *xmltree.Node
	W *xmltree.Node
}

// Join performs the closest join of Section VII between two node sequences
// in document order. Every node in vs must have the same type, likewise ws
// (the sequences come from the TypeToSequence table). It returns the
// closest pairs ordered by (V, W) document order.
//
// The join predicate is structural: a pair is closest when the Dewey
// numbers share a prefix of exactly typeLCP(typeof vs, typeof ws)
// components, so the join is a single merge over the two sorted sequences
// with a cross product inside each shared-prefix group — O(input + output).
func Join(vs, ws []*xmltree.Node) []Pair {
	var out []Pair
	joinWith(vs, ws, func(v, w *xmltree.Node) { out = append(out, Pair{V: v, W: w}) })
	return out
}

// JoinWithRec streams the closest join, invoking fn for each pair grouped
// by V in document order. It allocates no pair slice; the renderer uses it
// to pipeline joins (Section VII's streaming evaluation). rec optionally
// records statistics; a nil rec costs no extra allocations.
func JoinWithRec(vs, ws []*xmltree.Node, rec *Recorder, fn func(v, w *xmltree.Node)) {
	if rec == nil {
		joinWith(vs, ws, fn)
		return
	}
	pairs := 0
	joinWith(vs, ws, func(v, w *xmltree.Node) {
		pairs++
		fn(v, w)
	})
	rec.record(len(vs), len(ws), pairs)
}

func joinWith(vs, ws []*xmltree.Node, fn func(v, w *xmltree.Node)) {
	if len(vs) == 0 || len(ws) == 0 {
		return
	}
	if vs[0].Type == ws[0].Type {
		// Same type: only reflexive pairs are closest (distance 0).
		// The sequences enumerate the same nodes.
		for _, v := range vs {
			fn(v, v)
		}
		return
	}
	l := typeLCP(vs[0].Type, ws[0].Type)
	i, j := 0, 0
	for i < len(vs) && j < len(ws) {
		ki := prefixKey(vs[i].Dewey, l)
		kj := prefixKey(ws[j].Dewey, l)
		c := ki.Compare(kj)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Collect the group of vs and ws sharing this prefix and
			// emit the cross product.
			i2 := i
			for i2 < len(vs) && prefixKey(vs[i2].Dewey, l).Equal(ki) {
				i2++
			}
			j2 := j
			for j2 < len(ws) && prefixKey(ws[j2].Dewey, l).Equal(ki) {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					fn(vs[a], ws[b])
				}
			}
			i, j = i2, j2
		}
	}
}

func prefixKey(d xmltree.Dewey, l int) xmltree.Dewey {
	if l > len(d) {
		l = len(d)
	}
	return d[:l]
}
