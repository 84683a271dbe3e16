package store

import (
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xmorph/internal/obs"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// ShredInfo summarizes a shredded document.
type ShredInfo struct {
	Name  string
	Types int
	Nodes int
}

// Shred streams an XML document into the store: one pass assigns Dewey
// numbers, writes every node's value into its type sequence, and
// aggregates the adorned shape's cardinalities (Section VIII's data
// shredder). Memory use is bounded by document depth, not size.
//
// Under a non-nil parent span it opens a "shred" child annotated with the
// nodes and text characters shredded, the types discovered, and the pages
// written to the store. A nil parent is free.
func (s *Store) Shred(name string, r io.Reader, parent *obs.Span) (*ShredInfo, error) {
	sp := parent.Child("shred")
	defer sp.End()
	before := s.Stats()

	if _, exists, err := s.docID(name); err != nil {
		return nil, err
	} else if exists {
		return nil, fmt.Errorf("store: document %q already shredded", name)
	}
	id, err := s.nextDocID()
	if err != nil {
		return nil, err
	}

	sh := &shredder{store: s, docID: id, typeID: map[string]uint32{}, agg: map[edge]*cardAgg{}, parentCount: map[string]int{}}
	if err := sh.run(r); err != nil {
		return nil, err
	}

	// Type registry in typeID order.
	if err := s.putBlob(blobKey('T', id), []byte(strings.Join(sh.typeOrder, "\n"))); err != nil {
		return nil, err
	}
	// Adorned shape, plus its hash for shape-aware guard caches.
	enc := encodeShape(sh.shape())
	if err := s.putBlob(blobKey('S', id), []byte(enc)); err != nil {
		return nil, err
	}
	hashBuf := make([]byte, 8)
	binary.BigEndian.PutUint64(hashBuf, hashShapeEnc(enc))
	if err := s.db.Put(blobKey('H', id), hashBuf); err != nil {
		return nil, err
	}
	// Registry entry last: a crash mid-shred leaves no visible document.
	idBuf := make([]byte, 4)
	binary.BigEndian.PutUint32(idBuf, id)
	if err := s.db.Put(docKey(name), idBuf); err != nil {
		return nil, err
	}
	if err := s.db.Sync(); err != nil {
		return nil, err
	}
	if sp != nil {
		after := s.Stats()
		sp.Set("nodes", int64(sh.nodes))
		sp.Set("chars", int64(sh.chars))
		sp.Set("types", int64(len(sh.typeOrder)))
		sp.Set("pages-written", after.BlocksWritten-before.BlocksWritten)
		sp.Set("batched-puts", after.BatchedPuts-before.BatchedPuts)
		sp.Set("fastpath-hits", after.FastPathHits-before.FastPathHits)
	}
	return &ShredInfo{Name: name, Types: len(sh.typeOrder), Nodes: sh.nodes}, nil
}

// ShredDocument shreds an already-parsed document (used by generators that
// build documents in memory).
func (s *Store) ShredDocument(name string, d *xmltree.Document) (*ShredInfo, error) {
	return s.Shred(name, strings.NewReader(d.XML(false)), nil)
}

func (s *Store) nextDocID() (uint32, error) {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	v, ok, err := s.db.Get([]byte{'C'})
	if err != nil {
		return 0, err
	}
	var next uint32
	if ok {
		next = binary.BigEndian.Uint32(v)
	}
	buf := make([]byte, 4)
	binary.BigEndian.PutUint32(buf, next+1)
	if err := s.db.Put([]byte{'C'}, buf); err != nil {
		return 0, err
	}
	return next, nil
}

type edge struct{ parent, child string }

// cardAgg aggregates one shape edge's cardinality across parent instances.
type cardAgg struct {
	min, max   int
	haveParent int // parents that had at least one such child
	first      bool
}

// shredFlushBytes bounds the memory the shredder buffers before pushing
// its per-type runs through PutBatch.
const shredFlushBytes = 1 << 20

// typeRun is one type's buffered node records. Per-type keys are
// generated in document order — two nodes of one rooted type are never
// ancestor and descendant, so element close order equals document order
// — which means every run is already sorted when it reaches PutBatch.
type typeRun struct {
	keys, vals [][]byte
}

type shredder struct {
	store       *Store
	docID       uint32
	typeID      map[string]uint32
	typeOrder   []string
	agg         map[edge]*cardAgg
	edgeOrder   []edge
	parentCount map[string]int
	nodes       int
	chars       int
	// runs buffers node records per type (index = typeID); buffered
	// tracks their total bytes for the flush threshold.
	runs     []typeRun
	buffered int
}

// frame is one open element during the streaming parse.
type frame struct {
	dewey      xmltree.Dewey
	typ        string
	value      strings.Builder
	childN     int
	childTypes map[string]int
	childOrder []string // first-encounter order, preserved in the shape
}

func (sh *shredder) run(r io.Reader) error {
	dec := xml.NewDecoder(r)
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("store: shred: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var f *frame
			if len(stack) == 0 {
				if sh.nodes > 0 {
					return fmt.Errorf("store: shred: multiple root elements")
				}
				f = &frame{dewey: xmltree.Dewey{1}, typ: t.Name.Local}
			} else {
				p := stack[len(stack)-1]
				p.childN++
				f = &frame{
					dewey: p.dewey.Child(p.childN),
					typ:   p.typ + xmltree.TypeSep + t.Name.Local,
				}
				p.noteChild(f.typ)
			}
			f.childTypes = map[string]int{}
			stack = append(stack, f)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				f.childN++
				at := f.typ + xmltree.TypeSep + "@" + a.Name.Local
				f.noteChild(at)
				if err := sh.emit(at, f.dewey.Child(f.childN), a.Value); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return fmt.Errorf("store: shred: unbalanced end element %s", t.Name.Local)
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if err := sh.emit(f.typ, f.dewey, f.value.String()); err != nil {
				return err
			}
			sh.foldFrame(f)
		case xml.CharData:
			if len(stack) > 0 {
				s := string(t)
				if strings.TrimSpace(s) != "" {
					stack[len(stack)-1].value.WriteString(s)
				}
			}
		}
	}
	if sh.nodes == 0 {
		return fmt.Errorf("store: shred: no root element")
	}
	if len(stack) != 0 {
		return fmt.Errorf("store: shred: unexpected end of input inside <%s>", stack[len(stack)-1].typ)
	}
	return sh.flush()
}

// flush pushes every buffered type run through PutBatch, in typeID
// order. Node keys are prefixed by typeID, so consecutive runs extend
// one globally ascending key sequence — nearly every insert lands on the
// B+tree's cached leaf.
func (sh *shredder) flush() error {
	for tid := range sh.runs {
		r := &sh.runs[tid]
		if len(r.keys) == 0 {
			continue
		}
		if err := sh.store.db.PutBatch(r.keys, r.vals); err != nil {
			return err
		}
		r.keys, r.vals = r.keys[:0], r.vals[:0]
	}
	sh.buffered = 0
	return nil
}

func (f *frame) noteChild(childType string) {
	if _, seen := f.childTypes[childType]; !seen {
		f.childOrder = append(f.childOrder, childType)
	}
	f.childTypes[childType]++
}

// emit writes one node record and registers its type.
func (sh *shredder) emit(typ string, dw xmltree.Dewey, value string) error {
	tid, ok := sh.typeID[typ]
	if !ok {
		tid = uint32(len(sh.typeOrder))
		sh.typeID[typ] = tid
		sh.typeOrder = append(sh.typeOrder, typ)
	}
	sh.nodes++
	sh.chars += len(value)
	key := nodePrefix(sh.docID, tid)
	full := make([]byte, len(key)+4*len(dw))
	copy(full, key)
	for i, c := range dw {
		binary.BigEndian.PutUint32(full[len(key)+4*i:], uint32(c))
	}
	for int(tid) >= len(sh.runs) {
		sh.runs = append(sh.runs, typeRun{})
	}
	r := &sh.runs[tid]
	var err error
	r.keys, r.vals, err = appendBlobChunks(r.keys, r.vals, full, []byte(value))
	if err != nil {
		return err
	}
	sh.buffered += len(full) + len(value)
	if sh.buffered >= shredFlushBytes {
		return sh.flush()
	}
	return nil
}

// foldFrame folds one closed parent's child counts into the shape
// aggregation.
func (sh *shredder) foldFrame(f *frame) {
	sh.parentCount[f.typ]++
	for _, ct := range f.childOrder {
		n := f.childTypes[ct]
		e := edge{f.typ, ct}
		a, ok := sh.agg[e]
		if !ok {
			a = &cardAgg{first: true}
			sh.agg[e] = a
			sh.edgeOrder = append(sh.edgeOrder, e)
		}
		if a.first || n < a.min {
			a.min = n
		}
		if n > a.max {
			a.max = n
		}
		a.first = false
		a.haveParent++
	}
}

// shape assembles the adorned shape from the aggregation: an edge whose
// child type was absent under some parent instances has minimum 0.
func (sh *shredder) shape() *shape.Shape {
	out := shape.New()
	for _, t := range sh.typeOrder {
		out.AddType(t)
	}
	for _, e := range sh.edgeOrder {
		a := sh.agg[e]
		min := a.min
		if a.haveParent < sh.parentCount[e.parent] {
			min = 0
		}
		// Ignore impossible edge errors: shredding produces a tree.
		_ = out.AddEdge(e.parent, e.child, shape.Card{Min: min, Max: a.max})
	}
	return out
}
