package store

import "xmorph/internal/shape"

// FoldShape is the shape the legacy-store conversion folds from d's
// Walk.
func FoldShape(d *Doc) (*shape.Shape, error) {
	var h foldHandler
	err := d.Walk(&h)
	return h.f.Shape(), err
}
