package xmltree

import "slices"

// Seq is one type's vertices in document order, a row of Section VIII's
// TypeToSequence table held flat. Every vertex of a rooted type is as
// deep as the type, so their Dewey keys lie end to end in one arena,
// KeySize(depth) bytes each. A sequence read from a store keeps the
// values end to end in a second arena; one served from a materialized
// document keeps its nodes instead. A built Seq is read-only, and safe
// to share between goroutines.
type Seq struct {
	// Type is the rooted type path of every vertex.
	Type  string
	n     int
	width int
	keys  []byte
	vals  []byte
	ends  []uint32 // vertex i's value is vals[ends[i-1]:ends[i]]
	nodes []*Node
}

// NewSeq returns an empty sequence of type t for Append to fill.
func NewSeq(t string) *Seq { return &Seq{Type: t, width: KeySize(TypeDepth(t))} }

// Append adds a vertex after the last: key, KeySize(TypeDepth(s.Type))
// bytes, and value are copied.
func (s *Seq) Append(key, value []byte) {
	if s.n == cap(s.ends) {
		// Double: append grows a large slice by only a quarter, copying
		// a long sequence's arenas many times over.
		s.keys = append(make([]byte, 0, 2*cap(s.keys)+64*len(key)), s.keys...)
		s.ends = append(make([]uint32, 0, 2*cap(s.ends)+64), s.ends...)
	}
	s.keys = append(s.keys, key...)
	s.vals = append(s.vals, value...)
	s.ends = append(s.ends, uint32(len(s.vals)))
	s.n++
}

// NodeSeq returns the sequence of nodes, which share one type and come
// in document order, their keys encoded from their Dewey numbers and
// appended to keys (nil, or a buffer to reuse). With no nodes it has no
// type either.
func NodeSeq(nodes []*Node, keys []byte) Seq {
	s := Seq{n: len(nodes), nodes: nodes, keys: keys}
	if len(nodes) > 0 {
		s.Type, s.width = nodes[0].Type, KeySize(len(nodes[0].Dewey))
		s.keys = slices.Grow(s.keys, len(nodes)*s.width)
		for _, v := range nodes {
			s.keys = AppendKey(s.keys, v.Dewey)
		}
	}
	return s
}

// Len is the number of vertices.
func (s *Seq) Len() int { return s.n }

// Key is vertex i's Dewey key. It aliases the sequence: never write to it.
func (s *Seq) Key(i int) []byte {
	end := (i + 1) * s.width
	return s.keys[i*s.width : end : end]
}

// Value is vertex i's text in a stored sequence, aliasing it (never
// write to it), and nil in one of nodes, whose Node carries the text.
func (s *Seq) Value(i int) []byte {
	if s.ends == nil {
		return nil
	}
	lo := uint32(0)
	if i > 0 {
		lo = s.ends[i-1]
	}
	return s.vals[lo:s.ends[i]:s.ends[i]]
}

// Node is vertex i itself when the sequence was made of nodes, else nil.
func (s *Seq) Node(i int) *Node {
	if s.nodes == nil {
		return nil
	}
	return s.nodes[i]
}
