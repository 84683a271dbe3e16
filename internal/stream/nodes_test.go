package stream

import "xmorph/internal/xmltree"

// NodeSource supplies materialized type sequences (render.Source's
// shape); FromNodes adapts it, so the tests can run the executor over
// in-memory documents.
type NodeSource interface {
	NodesOfType(t string) []*xmltree.Node
}

// FromNodes adapts a materialized source (e.g. *xmltree.Document) to a
// streaming Source. Values are copied into a per-cursor reused buffer
// to honor the Cursor aliasing contract.
func FromNodes(doc NodeSource) Source { return nodeSource{doc} }

type nodeSource struct{ doc NodeSource }

func (s nodeSource) ScanType(t string) Cursor {
	return &nodeCursor{nodes: s.doc.NodesOfType(t), idx: -1}
}

type nodeCursor struct {
	nodes []*xmltree.Node
	idx   int
	val   []byte
}

func (c *nodeCursor) Next() bool {
	c.idx++
	if c.idx >= len(c.nodes) {
		return false
	}
	c.val = append(c.val[:0], c.nodes[c.idx].Value...)
	return true
}
func (c *nodeCursor) Dewey() xmltree.Dewey { return c.nodes[c.idx].Dewey }
func (c *nodeCursor) Value() []byte        { return c.val }
func (c *nodeCursor) Err() error           { return nil }
func (c *nodeCursor) Close()               {}
