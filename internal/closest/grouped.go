package closest

// Grouped is a closest join grouped by its left (parent) input in a
// CSR-style layout: the partners of every parent lie in one contiguous
// kids slice, as positions in the right (child) sequence, and offsets,
// indexed by the parent's position in its own sequence, bound each
// parent's group. A join costs two allocations, whatever its size; a
// lookup is an array index, and iterating a parent's partners walks
// contiguous memory.
type Grouped struct {
	// offsets has one entry per parent and one more: the partners of
	// parent i are kids[offsets[i]:offsets[i+1]].
	offsets []int32
	// kids holds every closest partner, grouped by parent, each group in
	// document order.
	kids []int32
}

// Of returns the positions in the child sequence of the closest partners
// of parent i, in document order. The slice aliases the shared kids
// array; callers must not modify it. Lookup is O(1) and allocation-free.
func (g *Grouped) Of(i int) []int32 {
	if g == nil || i < 0 || i+1 >= len(g.offsets) {
		return nil
	}
	return g.kids[g.offsets[i]:g.offsets[i+1]]
}

// Pairs returns the total number of closest pairs in the join.
func (g *Grouped) Pairs() int { return len(g.kids) }
