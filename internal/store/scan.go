package store

import (
	"bytes"
	"encoding/binary"

	"xmorph/internal/kvstore"
	"xmorph/internal/xmltree"
)

// TypeScan is a forward-only pull cursor over one type's node sequence,
// decoding nodes straight from the kvstore iterator in Dewey (document)
// order. Unlike NodesOfType it materializes nothing: the cursor holds
// only the current node, reusing one Dewey buffer and one value buffer
// across the whole scan — the streaming executor's storage primitive.
//
// The Dewey and Value of the current position alias those buffers, or
// the page image itself, and are valid only until the next call to Next.
type TypeScan struct {
	it     *kvstore.Iterator
	prefix []byte
	depth  int
	dewey  xmltree.Dewey
	val    []byte // the reused buffer multi-chunk values are assembled in
	cur    []byte // the current value: a page slice or val
	attr   bool
	name   string
	done   bool
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
	prefix := nodePrefix(d.id, tid, nil)
	depth := xmltree.TypeDepth(t)
	name := lastSegment(t)
	return &TypeScan{
		it:     d.r.Seek(prefix),
		prefix: prefix,
		depth:  depth,
		dewey:  make(xmltree.Dewey, depth),
		val:    make([]byte, 0, 64),
		attr:   name[0] == '@',
		name:   name,
	}
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
		if len(dw) != 4*s.depth || chunk != 0 || len(v) < 2 {
			// Malformed record or a stray continuation chunk: skip, like
			// NodesOfType.
			s.it.Next()
			continue
		}
		decodeDewey(s.dewey, dw)
		// A single-chunk value is the page image's own bytes; a value
		// spanning records is assembled in the reused buffer.
		s.cur = v[2:]
		if chunks := int(binary.BigEndian.Uint16(v)); chunks > 1 {
			s.val = append(s.val[:0], s.cur...)
			for c := 1; c < chunks; c++ {
				s.it.Next()
				if !s.it.Valid() {
					break // truncated record; keep what was read
				}
				ck := s.it.Key()
				cdw, cchunk, _ := splitNodeKey(ck)
				if !bytes.HasPrefix(ck, s.prefix) || !bytes.Equal(cdw, dw) || int(cchunk) != c {
					break // chunk chain interrupted
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

// Dewey returns the current node's Dewey number; the slice aliases the
// scan's reused buffer and is valid only until Next.
func (s *TypeScan) Dewey() xmltree.Dewey { return s.dewey }

// Value returns the current node's text value, valid only until Next:
// a single-chunk value aliases the page image (retaining it pins the
// page; it must never be written to), a longer one the scan's reused
// buffer. Callers copy or encode it before advancing.
func (s *TypeScan) Value() []byte { return s.cur }

// Attr reports whether the scanned type is an attribute type.
func (s *TypeScan) Attr() bool { return s.attr }

// Err returns the first storage error the scan hit, if any.
func (s *TypeScan) Err() error {
	if s.it == nil {
		return nil
	}
	return s.it.Err()
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
