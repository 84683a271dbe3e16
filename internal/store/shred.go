package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"xmorph/internal/kvstore"
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
	sh, err := s.shredAs(id, name, r)
	if err != nil {
		// Runs flushed before the input turned out malformed, cut short
		// or too large sit under an id no registry entry will ever name.
		return nil, errors.Join(err, s.removeID(id))
	}
	if sp != nil {
		after := s.Stats()
		sp.Set("nodes", int64(sh.nodes))
		sp.Set("chars", int64(sh.chars))
		sp.Set("types", int64(len(sh.types)))
		sp.Set("pages-written", after.BlocksWritten-before.BlocksWritten)
		sp.Set("batched-puts", after.BatchedPuts-before.BatchedPuts)
		sp.Set("fastpath-hits", after.FastPathHits-before.FastPathHits)
	}
	return &ShredInfo{Name: name, Types: len(sh.types), Nodes: sh.nodes}, nil
}

// shredAs scans r into the store under a freshly allocated id and
// commits the document.
func (s *Store) shredAs(id uint32, name string, r io.Reader) (*shredder, error) {
	runs := &typeRuns{db: s.db}
	sh := newShredder(id, newTypeRegistry(nil), runs.add, "", nil, 1)
	if err := xmltree.Scan(r, sh); err != nil {
		return nil, fmt.Errorf("store: shred: %w", err)
	}
	if err := runs.flush(); err != nil {
		return nil, err
	}
	// Type registry in typeID order.
	if err := s.putBlob(blobKey('T', id), []byte(strings.Join(sh.types, "\n"))); err != nil {
		return nil, err
	}
	// Adorned shape, plus its hash for shape-aware guard caches.
	enc := encodeShape(sh.fold.Shape())
	if err := s.putBlob(blobKey('S', id), []byte(enc)); err != nil {
		return nil, err
	}
	if err := s.db.Put(blobKey('H', id), binary.BigEndian.AppendUint64(nil, hashShapeEnc(enc))); err != nil {
		return nil, err
	}
	// Registry entry last: a crash mid-shred leaves no visible document.
	if err := s.db.Put(docKey(name), binary.BigEndian.AppendUint32(nil, id)); err != nil {
		return nil, err
	}
	return sh, s.db.Sync()
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
	if err := s.db.Put([]byte{'C'}, binary.BigEndian.AppendUint32(nil, next+1)); err != nil {
		return 0, err
	}
	return next, nil
}

// typeRegistry numbers a document's types: a type's typeID is its index
// in types, the order of the 'T' record.
type typeRegistry struct {
	types  []string
	typeID map[string]uint32
}

func newTypeRegistry(types []string) *typeRegistry {
	r := &typeRegistry{types: types, typeID: make(map[string]uint32, len(types))}
	for i, t := range types {
		r.typeID[t] = uint32(i)
	}
	return r
}

// register returns t's typeID, entering t on first sight.
func (r *typeRegistry) register(t string) uint32 {
	id, ok := r.typeID[t]
	if !ok {
		id = uint32(len(r.types))
		r.types = append(r.types, t)
		r.typeID[t] = id
	}
	return id
}

// joinType extends the rooted type path parent ("" above a root) by rel.
func joinType(parent, rel string) string {
	if parent == "" {
		return rel
	}
	return parent + xmltree.TypeSep + rel
}

// shredder is the xmltree.Handler that turns a document's events into
// node records: it hands out child ordinals, attributes first as they
// arrive, builds each node's rooted type path and Dewey number below
// the position it was rooted at, registers types as their first record
// is written — an attribute's at its event, an element's at its End,
// when its text is complete — and passes every record to out. A whole
// document is rooted above a root (type "", no Dewey number, ordinal 1);
// an update's fragment at a child slot of an existing node.
//
// Per node it allocates nothing: type paths are built once per (parent
// type, child name), and a record's key and value are assembled in
// buffers the next record reuses.
type shredder struct {
	*typeRegistry
	docID uint32
	// out takes one node's record: its key without the chunk index, and
	// its text value. Both are valid only until out returns.
	out func(tid uint32, key, value []byte) error
	// fold infers the shape of what is shredded. An update ignores it: it
	// recounts the types it touched from their stored sequences.
	fold shape.Fold
	// paths holds the rooted type paths met so far, paths[0] the one of
	// the node the shredder was rooted at; childPath indexes them by
	// parent path and child name.
	paths     []typePath
	childPath map[pathStep]int32
	// open holds the elements being read, innermost last, below the
	// frame of the node the shredder was rooted at; path is the innermost
	// one's Dewey number, one component per frame above that node's own.
	// A frame's value buffer is kept for the next element at its depth.
	open  []frame
	path  xmltree.Dewey
	key   []byte // the record key being built
	attr  []byte // the attribute value being written
	nodes int
	chars int
	err   error
}

// typePath is one rooted type path, with its typeID once a record of the
// type has been written.
type typePath struct {
	path       string
	tid        uint32
	registered bool
}

type pathStep struct {
	parent int32
	name   string
	attr   bool
}

// frame is one open element.
type frame struct {
	typ   int32 // index into paths
	value []byte
	kids  int // child ordinals handed out
}

// newShredder roots a shredder at child ordinal ord of the node of type
// parentT at Dewey number pd.
func newShredder(docID uint32, reg *typeRegistry, out func(tid uint32, key, value []byte) error,
	parentT string, pd xmltree.Dewey, ord int) *shredder {
	return &shredder{
		typeRegistry: reg, docID: docID, out: out,
		paths:     []typePath{{path: parentT}},
		childPath: map[pathStep]int32{},
		open:      []frame{{kids: ord - 1}},
		path:      append(xmltree.Dewey(nil), pd...),
	}
}

// child returns the index of the type path of a child named name (an
// attribute if attr) below a node of path parent.
func (sh *shredder) child(parent int32, name string, attr bool) int32 {
	step := pathStep{parent, name, attr}
	if i, ok := sh.childPath[step]; ok {
		return i
	}
	if attr {
		name = "@" + name
	}
	sh.paths = append(sh.paths, typePath{path: joinType(sh.paths[parent].path, name)})
	i := int32(len(sh.paths) - 1)
	sh.childPath[step] = i
	return i
}

func (sh *shredder) Start(name string) {
	p := &sh.open[len(sh.open)-1]
	p.kids++
	sh.path = append(sh.path, p.kids)
	typ := sh.child(p.typ, name, false)
	if n := len(sh.open); n < cap(sh.open) {
		sh.open = sh.open[:n+1]
		sh.open[n] = frame{typ: typ, value: sh.open[n].value[:0]}
	} else {
		sh.open = append(sh.open, frame{typ: typ})
	}
	sh.fold.Open(sh.paths[typ].path)
}

func (sh *shredder) Attr(name, value string) {
	f := &sh.open[len(sh.open)-1]
	f.kids++
	typ := sh.child(f.typ, name, true)
	sh.fold.Open(sh.paths[typ].path)
	sh.fold.Close()
	sh.attr = append(sh.attr[:0], value...)
	sh.emit(typ, append(sh.path, f.kids), sh.attr)
}

func (sh *shredder) Text(s string) {
	f := &sh.open[len(sh.open)-1]
	f.value = append(f.value, s...)
}

func (sh *shredder) End() {
	f := sh.open[len(sh.open)-1]
	sh.open = sh.open[:len(sh.open)-1]
	sh.emit(f.typ, sh.path, f.value)
	sh.path = sh.path[:len(sh.path)-1]
	sh.fold.Close()
}

func (sh *shredder) Err() error { return sh.err }

// emit writes one node's record. After a failure it writes nothing more:
// the events that still arrive only keep the frames balanced.
func (sh *shredder) emit(typ int32, dw xmltree.Dewey, value []byte) {
	if sh.err != nil {
		return
	}
	t := &sh.paths[typ]
	if len(dw) > xmltree.MaxDepth {
		// Only a fragment grafted deep into a document gets here: the scan
		// bounds a whole document's depth itself.
		sh.err = fmt.Errorf("store: node %s lies deeper than %d levels", t.path, xmltree.MaxDepth)
		return
	}
	if !t.registered {
		t.tid, t.registered = sh.register(t.path), true
	}
	sh.nodes++
	sh.chars += len(value)
	sh.key = appendNodePrefix(sh.key[:0], sh.docID, t.tid, dw)
	sh.err = sh.out(t.tid, sh.key, value)
}

// shredFlushBytes bounds the memory the shredder buffers before pushing
// its per-type runs through PutBatch.
const shredFlushBytes = 1 << 20

// typeRuns buffers a shred's node records per type (index = typeID).
// Per-type keys are generated in document order — two nodes of one
// rooted type are never ancestor and descendant, so element close order
// equals document order — which means every run is already sorted when
// it reaches PutBatch.
type typeRuns struct {
	db   *kvstore.DB
	runs []typeRun
	// arena holds the bytes of every buffered record. PutBatch copies
	// what it is given, so each flush leaves the arena free for reuse.
	arena    []byte
	buffered int // bytes held across all runs, for the flush threshold
}

type typeRun struct {
	keys, vals [][]byte
}

func (b *typeRuns) add(tid uint32, key, value []byte) error {
	for int(tid) >= len(b.runs) {
		b.runs = append(b.runs, typeRun{})
	}
	r := &b.runs[tid]
	var err error
	b.arena, r.keys, r.vals, err = appendBlobChunks(b.arena, r.keys, r.vals, key, value)
	if err != nil {
		return err
	}
	b.buffered += len(key) + len(value)
	if b.buffered >= shredFlushBytes {
		return b.flush()
	}
	return nil
}

// flush pushes every buffered type run through PutBatch, in typeID
// order. Node keys are prefixed by typeID, so consecutive runs extend
// one globally ascending key sequence — nearly every insert lands on the
// B+tree's cached leaf.
func (b *typeRuns) flush() error {
	for tid := range b.runs {
		r := &b.runs[tid]
		if len(r.keys) == 0 {
			continue
		}
		if err := b.db.PutBatch(r.keys, r.vals); err != nil {
			return err
		}
		r.keys, r.vals = r.keys[:0], r.vals[:0]
	}
	b.arena, b.buffered = b.arena[:0], 0
	return nil
}
