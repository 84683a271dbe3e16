// Package xmltree provides the XML data model underlying XMorph: documents
// parsed into node trees where every element and attribute is a vertex with
// a Dewey (dynamic-level) number, a text value, and a rooted type path.
//
// The model follows Section IV of "Querying XML Data: As You Shape It"
// (Dyreson & Bhowmick, ICDE 2012): typeOf(v) is the concatenation of the
// element names on the path from the document root to v, distance(v, w) is
// the number of tree edges between v and w, and Dewey numbers make the
// distance computable from node identifiers alone (Section VII).
package xmltree

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
)

// Dewey is a prefix-based node number. The root of a document is [1]; the
// i-th child (1-based) of a node numbered d is append(d, i). Two nodes'
// tree distance is recoverable from their numbers alone, which is what
// makes the closest join of Section VII a plain merge join.
type Dewey []int

// ParseDewey parses a dotted Dewey string such as "1.1.2".
func ParseDewey(s string) (Dewey, error) {
	if s == "" {
		return nil, &DeweyError{Input: s, Reason: "empty"}
	}
	parts := strings.Split(s, ".")
	d := make(Dewey, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, &DeweyError{Input: s, Reason: "component " + p + " is not a positive integer"}
		}
		d[i] = n
	}
	return d, nil
}

// DeweyError reports a malformed Dewey string.
type DeweyError struct {
	Input  string
	Reason string
}

func (e *DeweyError) Error() string {
	return "xmltree: bad dewey number " + strconv.Quote(e.Input) + ": " + e.Reason
}

// String renders the number in dotted form ("1.1.2").
func (d Dewey) String() string {
	if len(d) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range d {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}

// Level is the node's depth in edges below the root: the root is level 0.
func (d Dewey) Level() int { return len(d) - 1 }

// Child returns the number of this node's i-th (1-based) child.
func (d Dewey) Child(i int) Dewey {
	c := make(Dewey, len(d)+1)
	copy(c, d)
	c[len(d)] = i
	return c
}

// Clone returns an independent copy of d.
func (d Dewey) Clone() Dewey {
	c := make(Dewey, len(d))
	copy(c, d)
	return c
}

// Compare orders numbers in document order (preorder): a prefix sorts
// before its extensions, and siblings sort by component.
func (d Dewey) Compare(o Dewey) int {
	n := len(d)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		switch {
		case d[i] < o[i]:
			return -1
		case d[i] > o[i]:
			return 1
		}
	}
	switch {
	case len(d) < len(o):
		return -1
	case len(d) > len(o):
		return 1
	}
	return 0
}

// Equal reports whether d and o are the same number.
func (d Dewey) Equal(o Dewey) bool { return d.Compare(o) == 0 }

// CommonPrefixLen returns the length of the longest shared prefix of d and
// o, i.e. the Dewey length of their least common ancestor.
func (d Dewey) CommonPrefixLen(o Dewey) int {
	n := len(d)
	if len(o) < n {
		n = len(o)
	}
	i := 0
	for i < n && d[i] == o[i] {
		i++
	}
	return i
}

// Distance returns the number of tree edges on the path between the nodes
// numbered d and o: level(d) + level(o) - 2*level(LCA).
func (d Dewey) Distance(o Dewey) int {
	lca := d.CommonPrefixLen(o)
	return (len(d) - lca) + (len(o) - lca)
}

// A Dewey key is a Dewey number as the store keys it and the executors
// compare it: each level a big-endian uint32, so that comparing two keys
// as bytes orders their nodes in document order, and a node's key is a
// prefix of each of its descendants' keys. The functions below are the
// format's one definition.

// KeyLevelBytes is the width of one level of a Dewey key.
const KeyLevelBytes = 4

// KeySize is the length of the key of a node depth levels deep.
func KeySize(depth int) int { return KeyLevelBytes * depth }

// KeyDepth is the number of levels key k encodes.
func KeyDepth(k []byte) int { return len(k) / KeyLevelBytes }

// AppendKey appends the key of d to dst.
func AppendKey(dst []byte, d Dewey) []byte {
	for _, c := range d {
		dst = binary.BigEndian.AppendUint32(dst, uint32(c))
	}
	return dst
}

// KeyLevel reads level i (0 = root) of key k.
func KeyLevel(k []byte, i int) int { return int(binary.BigEndian.Uint32(k[KeyLevelBytes*i:])) }

// SetKeyLevel overwrites level i of key k with v.
func SetKeyLevel(k []byte, i, v int) { binary.BigEndian.PutUint32(k[KeyLevelBytes*i:], uint32(v)) }

// DecodeKey fills dst, as deep as k, with the number k encodes.
func DecodeKey(dst Dewey, k []byte) {
	for i := range dst {
		dst[i] = KeyLevel(k, i)
	}
}

// CompareKeyPrefix compares key d's first len(p) bytes against key p:
// the result places d's node relative to p's subtree (-1 before it, 0
// at p or inside, +1 past it). d must be at least as deep as p. Nothing
// is decoded: byte order is numeric order level by level.
func CompareKeyPrefix(d, p []byte) int { return bytes.Compare(d[:len(p)], p) }
