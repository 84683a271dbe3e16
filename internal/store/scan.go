package store

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"

	"xmorph/internal/kvstore"
	"xmorph/internal/xmltree"
)

// TypeScan is a forward-only pull cursor over one type's node sequence,
// reading nodes straight from the kvstore iterator in Dewey (document)
// order. Unlike SeqOfType it copies nothing: the cursor holds
// only the current node, its Dewey number as the key stores it and its
// value in the page image or one reused buffer — the streaming
// executor's storage primitive.
//
// The DeweyKey and Value of the current position alias the page image
// or the scan's buffer, and are valid only until the next call to Next.
type TypeScan struct {
	it     *kvstore.Iterator
	prefix []byte // head[:], kept in the scan
	head   [nodeKeyHead]byte
	depth  int
	key    []byte // the current node's Dewey key, in the page image
	val    []byte // the reused buffer multi-chunk values are assembled in, grown on first use
	cur    []byte // the current value: a page slice or val
	attr   bool
	name   string
	done   bool
	err    error // a broken chunk chain; the iterator keeps storage errors
}

// ScanType opens a Dewey-ordered scan of a type's node sequence. An
// unknown type yields an empty scan. The scan reads through the Doc's
// reader: a View-bound Doc scans the view's pinned epoch, a live-store
// Doc scans a private snapshot taken now.
func (d *Doc) ScanType(t string) *TypeScan {
	tid, ok := d.typeID[t]
	if !ok {
		return &TypeScan{done: true}
	}
	name := lastSegment(t)
	s := &TypeScan{depth: xmltree.TypeDepth(t), attr: name[0] == '@', name: name}
	s.prefix = appendNodePrefix(s.head[:0], d.id, tid, nil)
	s.it = d.r.Seek(s.prefix)
	return s
}

// Next advances to the next node of the type; it returns false at the
// end of the sequence or on a storage error (see Err).
func (s *TypeScan) Next() bool {
	if s.done {
		return false
	}
	for s.it.Valid() {
		k := s.it.Key()
		if !bytes.HasPrefix(k, s.prefix) {
			s.close()
			return false
		}
		dw, chunk, _ := splitNodeKey(k)
		v := s.it.Value()
		if len(dw) != xmltree.KeySize(s.depth) || chunk != 0 || len(v) < 2 {
			// Malformed record or a stray continuation chunk: skip.
			s.it.Next()
			continue
		}
		s.key = dw
		// A single-chunk value is the page image's own bytes; a value
		// spanning records is assembled in the reused buffer. Updates
		// rewrite a value's chunks together, so a chain that breaks off
		// is corruption, not a shorter value.
		s.cur = v[2:]
		if chunks := int(binary.BigEndian.Uint16(v)); chunks > 1 {
			s.val = append(s.val[:0], s.cur...)
			for c := 1; c < chunks; c++ {
				s.it.Next()
				if !s.continues(dw, c) {
					if s.it.Err() == nil {
						s.err = fmt.Errorf("%w: node record: chunk %d of %d missing", ErrStorage, c, chunks)
					}
					s.close()
					return false
				}
				s.val = append(s.val, s.it.Value()...)
			}
			s.cur = s.val
		}
		s.it.Next()
		return true
	}
	s.close()
	return false
}

// continues reports whether the iterator is on chunk c of the node whose
// encoded Dewey number is dw.
func (s *TypeScan) continues(dw []byte, c int) bool {
	if !s.it.Valid() {
		return false
	}
	k := s.it.Key()
	cdw, chunk, _ := splitNodeKey(k)
	return bytes.HasPrefix(k, s.prefix) && bytes.Equal(cdw, dw) && int(chunk) == c
}

// DeweyKey returns the current node's Dewey key (xmltree.AppendKey). It
// aliases the page image (retaining it pins the page; it must never be
// written to).
func (s *TypeScan) DeweyKey() []byte { return s.key }

// Dewey decodes the current node's Dewey number.
func (s *TypeScan) Dewey() xmltree.Dewey {
	d := make(xmltree.Dewey, s.depth)
	xmltree.DecodeKey(d, s.key)
	return d
}

// Value returns the current node's text value, valid only until Next:
// a single-chunk value aliases the page image (retaining it pins the
// page; it must never be written to), a longer one the scan's reused
// buffer. Callers copy or encode it before advancing.
func (s *TypeScan) Value() []byte { return s.cur }

// Attr reports whether the scanned type is an attribute type.
func (s *TypeScan) Attr() bool { return s.attr }

// Err returns the first storage error the scan hit, if any: a failed page
// read, a corrupt page, or a node value whose chunk chain breaks off.
// Each is an ErrStorage.
func (s *TypeScan) Err() error {
	if s.err != nil || s.it == nil {
		return s.err
	}
	if err := s.it.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrStorage, err)
	}
	return nil
}

// Close releases the underlying iterator; it is safe to call more than
// once, and after Close the scan is exhausted.
func (s *TypeScan) Close() {
	s.close()
}

func (s *TypeScan) close() {
	s.done = true
	if s.it != nil {
		s.it.Close()
	}
}

// Walk hands the stored document to h in document order, as the events
// xmltree.Scan hands over for its serialization. It is the store's one
// document-order walk: it merges the type scans on their Dewey keys,
// which compare as bytes in document order, holding one node per type
// and building nothing. An element's text waits for its attributes. A
// node more than one level below the open element, or an attribute after
// its element's content, is an ErrStorage error. The walk stops at the
// first storage error or failure of h and returns it.
func (d *Doc) Walk(h xmltree.Handler) error {
	var q scanHeap
	defer func() {
		for _, sc := range q {
			sc.Close()
		}
	}()
	for _, t := range d.types {
		sc := d.ScanType(t)
		if sc.Next() {
			q = append(q, sc)
		} else if err := sc.Err(); err != nil {
			return err
		}
	}
	heap.Init(&q)
	// tag: the open element has shown only attributes. Its text waits in
	// text, a copy: the element's scan moves on before the text is handed
	// over, and a value of several chunks lives in the scan's buffer.
	depth, tag := 0, false
	var text []byte
	for len(q) > 0 {
		top := q[0]
		dd := xmltree.KeyDepth(top.key)
		if top.attr && tag && dd == depth+1 {
			h.Attr(top.name[1:], top.cur)
		} else {
			if tag && len(text) > 0 {
				h.Text(text)
			}
			for ; depth >= dd; depth-- {
				h.End()
			}
			if dd != depth+1 || top.attr {
				return fmt.Errorf("%w: node %s (%s) out of place under depth %d", ErrStorage, top.Dewey(), top.name, depth)
			}
			h.Start(top.name)
			tag, text = true, append(text[:0], top.cur...)
			depth++
		}
		if err := h.Err(); err != nil {
			return err
		}
		if top.Next() {
			heap.Fix(&q, 0)
		} else if err := top.Err(); err != nil {
			return err
		} else {
			heap.Pop(&q)
		}
	}
	if tag && len(text) > 0 {
		h.Text(text)
	}
	for ; depth > 0; depth-- {
		h.End()
	}
	return h.Err()
}

// scanHeap orders type scans by their current node's Dewey key.
type scanHeap []*TypeScan

func (h scanHeap) Len() int           { return len(h) }
func (h scanHeap) Less(i, j int) bool { return string(h[i].key) < string(h[j].key) }
func (h scanHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x any)        { *h = append(*h, x.(*TypeScan)) }
func (h *scanHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
