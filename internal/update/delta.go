package update

import (
	"fmt"
	"sort"
	"strings"

	"xmorph/internal/shape"
)

// DeltaKind classifies how an update moved a document's shape, in the
// query-compatibility sense: a narrowed shape satisfies every guard the
// old shape satisfied (types only disappeared, cardinalities only
// tightened), a widened shape may satisfy guards the old one rejected,
// and a mixed delta moves in both directions at once.
type DeltaKind int

const (
	// Unchanged: the new shape is identical, including sibling order.
	Unchanged DeltaKind = iota
	// Narrowed: types removed and/or cardinalities tightened only.
	Narrowed
	// Widened: types added and/or cardinalities loosened only.
	Widened
	// Mixed: both directions, or a sibling-order change.
	Mixed
)

// String renders the delta kind for logs and API responses.
func (k DeltaKind) String() string {
	switch k {
	case Narrowed:
		return "narrowed"
	case Widened:
		return "widened"
	case Mixed:
		return "mixed"
	default:
		return "unchanged"
	}
}

// Delta summarizes the shape difference an update produced.
type Delta struct {
	Kind DeltaKind
	// TypesAdded and TypesRemoved list rooted type paths present in only
	// one of the two shapes, sorted.
	TypesAdded   []string
	TypesRemoved []string
	// EdgesNarrowed and EdgesWidened count surviving parent→child edges
	// whose cardinality tightened (min up and/or max down) or loosened.
	EdgesNarrowed int
	EdgesWidened  int
	// Reordered reports a sibling-order change among surviving children
	// of a surviving parent — order-only changes classify as Mixed
	// because rendered output depends on shape sibling order.
	Reordered bool
}

// String renders a compact human-readable summary of the delta.
func (d Delta) String() string {
	if d.Kind == Unchanged {
		return "unchanged"
	}
	var b strings.Builder
	b.WriteString(d.Kind.String())
	if len(d.TypesAdded) > 0 {
		fmt.Fprintf(&b, " +%d types", len(d.TypesAdded))
	}
	if len(d.TypesRemoved) > 0 {
		fmt.Fprintf(&b, " -%d types", len(d.TypesRemoved))
	}
	if d.EdgesWidened > 0 {
		fmt.Fprintf(&b, " %d edges widened", d.EdgesWidened)
	}
	if d.EdgesNarrowed > 0 {
		fmt.Fprintf(&b, " %d edges narrowed", d.EdgesNarrowed)
	}
	if d.Reordered {
		b.WriteString(" (siblings reordered)")
	}
	return b.String()
}

// Compare computes the shape delta from old to new. Both shapes must be
// non-nil. Edge existence follows type existence (every inferred type
// has exactly one parent edge), so edge adds/removes are counted through
// TypesAdded/TypesRemoved rather than separately.
func Compare(old, new *shape.Shape) Delta {
	var d Delta
	for _, t := range new.Types() {
		if !old.HasType(t) {
			d.TypesAdded = append(d.TypesAdded, t)
		}
	}
	for _, t := range old.Types() {
		if !new.HasType(t) {
			d.TypesRemoved = append(d.TypesRemoved, t)
		}
	}
	sort.Strings(d.TypesAdded)
	sort.Strings(d.TypesRemoved)

	for _, p := range old.Types() {
		if !new.HasType(p) {
			continue
		}
		// Compare cardinalities of surviving edges.
		for _, c := range old.Children(p) {
			if !new.HasType(c) {
				continue
			}
			oc, ok1 := old.Card(p, c)
			nc, ok2 := new.Card(p, c)
			if !ok1 || !ok2 {
				continue
			}
			narrowed := nc.Min > oc.Min || nc.Max < oc.Max
			widened := nc.Min < oc.Min || nc.Max > oc.Max
			if narrowed {
				d.EdgesNarrowed++
			}
			if widened {
				d.EdgesWidened++
			}
		}
		// Compare the order of surviving children: project both child
		// lists onto the common set and require identical sequences.
		oldKids := surviving(old.Children(p), new)
		newKids := surviving(new.Children(p), old)
		if len(oldKids) == len(newKids) {
			for i := range oldKids {
				if oldKids[i] != newKids[i] {
					d.Reordered = true
					break
				}
			}
		} else {
			// A child present in both shapes but under different parents
			// (reparented type): treat as a reorder for safety.
			d.Reordered = true
		}
	}

	d.classify()
	return d
}

// classify sets the delta's Kind from its parts.
func (d *Delta) classify() {
	widening := len(d.TypesAdded) > 0 || d.EdgesWidened > 0
	narrowing := len(d.TypesRemoved) > 0 || d.EdgesNarrowed > 0
	switch {
	case d.Reordered, widening && narrowing:
		d.Kind = Mixed
	case widening:
		d.Kind = Widened
	case narrowing:
		d.Kind = Narrowed
	default:
		d.Kind = Unchanged
	}
}

// Edge is one child edge of a shape row: a child type and its card.
type Edge struct {
	Child string
	Card  shape.Card
}

// RowChange is one row of a shape — a parent type's child edges in
// sibling order — before and after a change. A parent the shape lacks,
// or holds as a leaf, has an empty row. Parent "" is the row of the
// roots, whose cards and order do not count.
type RowChange struct {
	Parent   string
	Old, New []Edge
}

// CompareRows computes the delta of a shape change from the rows it
// changed; every row it is not given must be the same in both shapes.
// A type's parent is fixed by its rooted path, so a child is in a shape
// exactly when that shape's row of its parent lists it, and the result
// equals Compare(old, new).
func CompareRows(rows []RowChange) Delta {
	var d Delta
	for _, r := range rows {
		for _, e := range r.New {
			if !hasChild(r.Old, e.Child) {
				d.TypesAdded = append(d.TypesAdded, e.Child)
			}
		}
		var oldKids []string
		for _, e := range r.Old {
			n, ok := childCard(r.New, e.Child)
			if !ok {
				d.TypesRemoved = append(d.TypesRemoved, e.Child)
				continue
			}
			oldKids = append(oldKids, e.Child)
			if r.Parent == "" {
				continue
			}
			if n.Min > e.Card.Min || n.Max < e.Card.Max {
				d.EdgesNarrowed++
			}
			if n.Min < e.Card.Min || n.Max > e.Card.Max {
				d.EdgesWidened++
			}
		}
		if r.Parent == "" {
			continue
		}
		// The surviving children, in the new row's order, must be the old
		// row's survivors in the old order.
		i := 0
		for _, e := range r.New {
			if hasChild(r.Old, e.Child) {
				if oldKids[i] != e.Child {
					d.Reordered = true
				}
				i++
			}
		}
	}
	sort.Strings(d.TypesAdded)
	sort.Strings(d.TypesRemoved)
	d.classify()
	return d
}

// childCard returns the card of child's edge in row, and whether row
// lists child.
func childCard(row []Edge, child string) (shape.Card, bool) {
	for _, e := range row {
		if e.Child == child {
			return e.Card, true
		}
	}
	return shape.Card{}, false
}

func hasChild(row []Edge, child string) bool {
	_, ok := childCard(row, child)
	return ok
}

// surviving filters kids to those that exist as types in other.
func surviving(kids []string, other *shape.Shape) []string {
	out := kids[:0:0]
	for _, k := range kids {
		if other.HasType(k) {
			out = append(out, k)
		}
	}
	return out
}
