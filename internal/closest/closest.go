// Package closest implements the closest relation of Definition 2, the
// closest graph of Definition 1, and the Dewey-number closest join of
// Section VII.
//
// Two vertices are closest when their tree distance equals the type
// distance of their types (the minimum distance between any two vertices of
// those types). With rooted type paths this has a purely structural
// characterization: v and w are closest if and only if their Dewey numbers
// share a prefix exactly as long as the common label prefix of their type
// paths — which is what lets the join run as a merge over the Dewey keys
// of two document-ordered type sequences.
package closest

import (
	"bytes"
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
func Join(vs, ws []*xmltree.Node) []Pair {
	var out []Pair
	JoinWithRec(vs, ws, nil, func(v, w *xmltree.Node) { out = append(out, Pair{V: v, W: w}) })
	return out
}

// JoinWithRec streams the closest join of Join, invoking fn for each pair
// grouped by V in document order: the key merge over the nodes' keys,
// encoded on the stack while they fit, so that a small join allocates
// nothing. rec optionally records statistics.
func JoinWithRec(vs, ws []*xmltree.Node, rec *Recorder, fn func(v, w *xmltree.Node)) {
	var vb, wb [256]byte
	vk, wk := xmltree.NodeSeq(vs, vb[:0]), xmltree.NodeSeq(ws, wb[:0])
	pairs := 0
	merge(&vk, &wk, func(i, j int) {
		pairs++
		fn(vs[i], ws[j])
	})
	rec.record(len(vs), len(ws), pairs)
}

// GroupJoin is Group over two node sequences: the partners of vs[i] are
// ws[j] for each j in Of(i). rec may be nil.
func GroupJoin(vs, ws []*xmltree.Node, rec *Recorder) *Grouped {
	vk, wk := xmltree.NodeSeq(vs, nil), xmltree.NodeSeq(ws, nil)
	return Group(&vk, &wk, rec)
}

// Group performs the closest join of Section VII between two type
// sequences and groups its pairs by their left (parent) vertex.
func Group(vs, ws *xmltree.Seq, rec *Recorder) *Grouped {
	n := vs.Len()
	g := &Grouped{offsets: make([]int32, n+1), kids: make([]int32, 0, max(n, ws.Len()))}
	set := 0 // the parents whose group start is set
	merge(vs, ws, func(i, j int) {
		for ; set <= i; set++ {
			g.offsets[set] = int32(len(g.kids))
		}
		g.kids = append(g.kids, int32(j))
	})
	for ; set <= n; set++ {
		g.offsets[set] = int32(len(g.kids))
	}
	rec.record(n, ws.Len(), len(g.kids))
	return g
}

// merge is the closest join: it calls pair(i, j) for every closest pair
// of vs's vertex i and ws's vertex j, grouped by i and each group in j
// order, both ascending.
//
// The join predicate is structural: a pair is closest when the Dewey
// numbers share a prefix of exactly typeLCP(vs.Type, ws.Type) levels, so
// the join is a single merge over the two key sequences comparing the
// first KeySize(typeLCP) bytes of each key, with a cross product inside
// each shared-prefix group: O(input + output). Two sequences of one type
// are the same vertices, of which only the reflexive pairs are closest
// (distance 0).
func merge(vs, ws *xmltree.Seq, pair func(i, j int)) {
	n, m := vs.Len(), ws.Len()
	if n == 0 || m == 0 {
		return
	}
	if vs.Type == ws.Type {
		for i := 0; i < n; i++ {
			pair(i, i)
		}
		return
	}
	l := xmltree.KeySize(typeLCP(vs.Type, ws.Type))
	i, j := 0, 0
	for i < n && j < m {
		p := vs.Key(i)[:l]
		switch c := bytes.Compare(p, ws.Key(j)[:l]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			j2 := j + 1
			for j2 < m && bytes.Equal(ws.Key(j2)[:l], p) {
				j2++
			}
			for ; i < n && bytes.Equal(vs.Key(i)[:l], p); i++ {
				for k := j; k < j2; k++ {
					pair(i, k)
				}
			}
			j = j2
		}
	}
}
