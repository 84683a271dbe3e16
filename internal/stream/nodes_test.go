package stream

import "xmorph/internal/xmltree"

// NodeSource supplies materialized type sequences; FromNodes adapts it,
// so the tests can run the executor over in-memory documents.
type NodeSource interface {
	NodesOfType(t string) []*xmltree.Node
}

// FromNodes adapts a materialized source (e.g. *xmltree.Document) to a
// streaming Source. Dewey numbers are encoded as the store keys them, and
// they and the values go through per-cursor reused buffers, to honor the
// Cursor aliasing contract.
func FromNodes(doc NodeSource) Source { return nodeSource{doc} }

type nodeSource struct{ doc NodeSource }

func (s nodeSource) ScanType(t string) Cursor {
	return &nodeCursor{nodes: s.doc.NodesOfType(t), idx: -1}
}

type nodeCursor struct {
	nodes    []*xmltree.Node
	idx      int
	key, val []byte
}

func (c *nodeCursor) Next() bool {
	c.idx++
	if c.idx >= len(c.nodes) {
		return false
	}
	c.key = xmltree.AppendKey(c.key[:0], c.nodes[c.idx].Dewey)
	c.val = append(c.val[:0], c.nodes[c.idx].Value...)
	return true
}
func (c *nodeCursor) DeweyKey() []byte { return c.key }
func (c *nodeCursor) Value() []byte    { return c.val }
func (c *nodeCursor) Err() error       { return nil }
func (c *nodeCursor) Close()           {}
