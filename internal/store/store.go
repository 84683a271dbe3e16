// Package store implements the shredded XML store of Section VIII (Figure
// 8): documents are shredded into a B+tree holding, per document, one
// adorned-shape row per parent type, a type registry, and one
// document-ordered node sequence per type (the paper's AdornedShapes,
// Nodes, TypeToSequence, and GroupedSequence tables collapse into key
// ranges of a single ordered store).
//
// Key layout (all integers big-endian, so lexicographic key order is
// document order within a type):
//
//	'D' name                     -> docID (u32)
//	'A' docID parentTypeID chunk -> one adorned-shape row (see rows.go)
//	'T' docID chunk              -> type registry blob ("\n"-joined paths)
//	'H' docID                    -> shape hash (u64, the sum of the rows' hashes)
//	'N' docID typeID dewey chunk -> node text value
//
// A node's key embeds its Dewey number as a sequence of u32 components;
// all nodes of one type share a depth, so the per-type range scans in
// document order with no comparator tricks.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"xmorph/internal/kvstore"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// chunkSize keeps records under the kvstore value limit.
const chunkSize = 1400

// Store is a shredded-document store. A Store's configuration is fixed at
// Open time (functional options); there are no mutable knobs after
// construction, so one Store is safe to share across goroutines without
// configuration races.
//
// Every verb that changes a document commits it as one kvstore
// transaction: a reader sees the document before the verb or after it,
// never between, and a flush — this verb's Sync or another writer's —
// can make only those two states durable.
type Store struct {
	db *kvstore.DB
	// writeMu is the store's writer lock. It covers each verb's
	// read-check-write — the document-ID counter, the shred's name check
	// and commit, Drop's lookup and commit, Update's view, overlay and
	// commit — so what a verb checked still holds when its transaction
	// commits. Readers never take it, and Syncs run outside it so that
	// concurrent verbs still share group commits.
	writeMu sync.Mutex
	// regMu guards regs, each document's decoded type registry by docID
	// (see registry).
	regMu sync.Mutex
	regs  map[uint32]*storedRegistry
}

// Sentinel errors, wrapped with the document's name by the verbs that
// return them.
var (
	// ErrNotFound reports an operation on a document the store does not
	// hold.
	ErrNotFound = errors.New("store: document not found")
	// ErrExists reports a shred of a name the store already holds.
	ErrExists = errors.New("store: document already shredded")
	// ErrStorage marks a read that failed below the document model: a
	// page that could not be read or is corrupt, or a node value whose
	// chunk chain breaks off. What was read is incomplete, so nothing
	// built from it may be served.
	ErrStorage = errors.New("store: storage error")
)

// commit runs a verb's read-check-write under the writer lock and, when
// it succeeds, Syncs after releasing the lock.
func (s *Store) commit(verb func() error) error {
	s.writeMu.Lock()
	err := verb()
	s.writeMu.Unlock()
	if err != nil {
		return err
	}
	return s.db.Sync()
}

// Option configures a Store at Open time.
type Option func(*kvstore.Options)

// WithCachePages sizes the underlying buffer pool in pages.
func WithCachePages(n int) Option {
	return func(kv *kvstore.Options) { kv.CachePages = n }
}

// WithKVOptions replaces the whole underlying kvstore configuration; the
// crash and chaos tests inject a fault-injecting FS through it. Named
// options applied after it still take effect.
func WithKVOptions(o *kvstore.Options) Option {
	return func(kv *kvstore.Options) {
		if o != nil {
			*kv = *o
		}
	}
}

// Open opens (or creates) a store file, converting the shape records of
// a store written before shapes became rows (convertShapes).
func Open(path string, opts ...Option) (*Store, error) {
	var kv kvstore.Options
	for _, o := range opts {
		if o != nil {
			o(&kv)
		}
	}
	db, err := kvstore.Open(path, &kv)
	if err != nil {
		return nil, err
	}
	s := &Store{db: db}
	if err := s.convertShapes(); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return s, nil
}

// OpenMemory returns an in-memory store (same code path, no file).
func OpenMemory(opts ...Option) *Store {
	var kv kvstore.Options
	for _, o := range opts {
		if o != nil {
			o(&kv)
		}
	}
	return &Store{db: kvstore.OpenMemory(&kv)}
}

// Close flushes and closes the underlying store.
func (s *Store) Close() error { return s.db.Close() }

// Sync flushes dirty pages. Concurrent Syncs share one group commit.
func (s *Store) Sync() error { return s.db.Sync() }

// Stats returns the underlying block I/O counters.
func (s *Store) Stats() kvstore.Stats { return s.db.Stats() }

// reader is the read surface the store's lookups run on: either the live
// DB (each Get/scan runs on its own implicit snapshot) or one pinned
// kvstore.Snapshot (a View's frozen epoch).
type reader interface {
	Get(key []byte) ([]byte, bool, error)
	AscendPrefix(prefix []byte, fn func(k, v []byte) bool) error
	Seek(target []byte) *kvstore.Iterator
}

// View is a consistent read-only view of the whole store at one committed
// epoch: every lookup and scan through it — documents, shapes, node
// sequences — answers from the same instant, no matter how many shreds or
// drops commit meanwhile, and none of them wait for writers. Views are
// cheap (an epoch pin, no copying) but must be Closed so superseded pages
// can retire; Close is idempotent. A View is safe for concurrent use.
type View struct {
	s    *Store
	snap *kvstore.Snapshot
}

// View pins the current committed state.
func (s *Store) View() *View { return &View{s: s, snap: s.db.OpenSnapshot()} }

// Close releases the view's snapshot pin.
func (v *View) Close() { v.snap.Close() }

// Epoch identifies the committed state the view observes.
func (v *View) Epoch() uint64 { return v.snap.Epoch() }

// DocVersion returns a document's shred version as of the view: its
// internal docID, which the store never reuses (drop + re-shred assigns a
// fresh id from a monotonic counter). Compiled-guard caches key on it so
// a re-shredded document invalidates every cached compilation against
// its old shape.
func (v *View) DocVersion(name string) (uint32, bool, error) { return docIDIn(v.snap, name) }

// Documents lists the view's document names, sorted.
func (v *View) Documents() ([]string, error) { return documentsIn(v.snap) }

// Shape loads a document's adorned shape as of the view.
func (v *View) Shape(name string) (*shape.Shape, error) { return shapeIn(v.snap, name) }

// Doc opens a lazy document view frozen at the view's epoch; its node
// sequences stay loadable (and consistent) for as long as the View is
// open.
func (v *View) Doc(name string) (*Doc, error) { return v.s.docIn(v.snap, name) }

func docKey(name string) []byte { return append([]byte{'D'}, name...) }

func blobKey(prefix byte, docID uint32) []byte {
	k := make([]byte, 5)
	k[0] = prefix
	binary.BigEndian.PutUint32(k[1:], docID)
	return k
}

// The 'N' key codec: 'N' docID typeID dewey… chunk. Every site that
// builds or takes apart a node key goes through these functions.
const (
	nodeKeyHead  = 9 // 'N', docID, typeID
	nodeKeyChunk = 2 // the chunk index appendChunks appends

	// A node at the deepest level the XML scan admits still fits a key.
	_ = uint(kvstore.MaxKeySize - (nodeKeyHead + xmltree.KeyLevelBytes*xmltree.MaxDepth + nodeKeyChunk))
)

// nodePrefix builds 'N' docID typeID dewey…: with no Dewey number the
// prefix of a type's whole sequence, with a node's the prefix of its
// records and of its subtree's in a descendant type.
func nodePrefix(docID, typeID uint32, dewey xmltree.Dewey) []byte {
	return appendNodePrefix(make([]byte, 0, nodeKeyHead+xmltree.KeySize(len(dewey))+nodeKeyChunk), docID, typeID, dewey)
}

// appendNodePrefix appends nodePrefix(docID, typeID, dewey) to dst.
func appendNodePrefix(dst []byte, docID, typeID uint32, dewey xmltree.Dewey) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, 'N'), docID)
	dst = binary.BigEndian.AppendUint32(dst, typeID)
	return xmltree.AppendKey(dst, dewey)
}

// nodeKey builds the key of one chunk of a node's record.
func nodeKey(docID, typeID uint32, dewey xmltree.Dewey, chunk uint16) []byte {
	return binary.BigEndian.AppendUint16(nodePrefix(docID, typeID, dewey), chunk)
}

// splitNodeKey takes a node key apart into its Dewey key (a view into
// k) and its chunk index; ok
// is false for a key too short to be a node key.
func splitNodeKey(k []byte) (dewey []byte, chunk uint16, ok bool) {
	if len(k) < nodeKeyHead+nodeKeyChunk {
		return nil, 0, false
	}
	end := len(k) - nodeKeyChunk
	return k[nodeKeyHead:end], binary.BigEndian.Uint16(k[end:]), true
}

// withOrdinal returns a copy of node key k with level i of its Dewey
// number set to v.
func withOrdinal(k []byte, i, v int) []byte {
	nk := append([]byte(nil), k...)
	xmltree.SetKeyLevel(nk[nodeKeyHead:], i, v)
	return nk
}

// chunk is where one chunked record lies in an arena: its key at
// arena[at:at+kl], its value in the vl bytes right after.
type chunk struct{ at, kl, vl uint32 }

// appendChunks appends the chunked records of one blob to arena and
// their places to recs: chunk i of a value lives under key+i, and chunk
// 0 carries a 2-byte chunk-count header. The records' bytes are copied,
// so they outlive key and val. The shredder accumulates every type's
// records in one arena it reuses after every flush; the shred's tail and
// an update's overlay take them one blob at a time.
func appendChunks(arena []byte, recs []chunk, key, val []byte) ([]byte, []chunk, error) {
	n := (len(val) + chunkSize - 1) / chunkSize
	if n == 0 {
		n = 1
	}
	if n > 1<<16-1 {
		return arena, recs, fmt.Errorf("store: blob too large (%d bytes)", len(val))
	}
	if need := n*(len(key)+nodeKeyChunk) + 2 + len(val); cap(arena)-len(arena) < need {
		// Double: append grows a large slice by only a quarter, which
		// would copy a flush-sized arena many times over.
		arena = append(make([]byte, 0, len(arena)+max(need, cap(arena))), arena...)
	}
	for i := 0; i < n; i++ {
		at := len(arena)
		arena = binary.BigEndian.AppendUint16(append(arena, key...), uint16(i))
		kl := len(arena) - at
		if i == 0 {
			arena = binary.BigEndian.AppendUint16(arena, uint16(n))
		}
		arena = append(arena, val[i*chunkSize:min((i+1)*chunkSize, len(val))]...)
		recs = append(recs, chunk{uint32(at), uint32(kl), uint32(len(arena) - at - kl)})
	}
	return arena, recs, nil
}

// appendRecords appends the keys and values recs places in arena to the
// parallel keys and vals, each capped at its end.
func appendRecords(keys, vals [][]byte, arena []byte, recs []chunk) ([][]byte, [][]byte) {
	for _, r := range recs {
		k, e := r.at+r.kl, r.at+r.kl+r.vl
		keys = append(keys, arena[r.at:k:k])
		vals = append(vals, arena[k:e:e])
	}
	return keys, vals
}

// getBlob reassembles a chunked value through r into a buffer of its
// exact size.
func getBlob(r reader, key []byte) ([]byte, bool, error) {
	var parts [16][]byte
	chunks, ok, err := blobChunks(r, key, parts[:0])
	if err != nil || !ok {
		return nil, ok, err
	}
	out := make([]byte, 0, chunksLen(chunks))
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, true, nil
}

// blobChunks appends the chunks of the value under key to parts, read
// by one Seek/Next pass: chunk 0, whose 2-byte header counts the
// chunks, then the others, which follow it in key order. The chunks
// alias page images: copy them before keeping them. A snapshot's Seek
// is inlined here, so its iterator stays on the stack.
func blobChunks(r reader, key []byte, parts [][]byte) ([][]byte, bool, error) {
	var it *kvstore.Iterator
	if snap, ok := r.(*kvstore.Snapshot); ok {
		it = snap.Seek(key)
	} else {
		it = r.Seek(key)
	}
	defer it.Close()
	var buf [16]byte
	ck := append(append(buf[:0], key...), 0, 0)
	if !it.Valid() || !bytes.Equal(it.Key(), ck) {
		return parts, false, it.Err()
	}
	first := it.Value()
	if len(first) < 2 {
		return parts, false, fmt.Errorf("store: corrupt blob header")
	}
	n := int(binary.BigEndian.Uint16(first))
	parts = append(parts, first[2:])
	for i := 1; i < n; i++ {
		binary.BigEndian.PutUint16(ck[len(key):], uint16(i))
		if it.Next(); !it.Valid() || !bytes.Equal(it.Key(), ck) {
			if err := it.Err(); err != nil {
				return parts, false, err
			}
			return parts, false, fmt.Errorf("store: blob missing chunk %d of %d", i, n)
		}
		parts = append(parts, it.Value())
	}
	return parts, true, nil
}

// chunksLen is the length of the value chunks make up.
func chunksLen(chunks [][]byte) int {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// docIDIn resolves a stored document's id through r.
func docIDIn(r reader, name string) (uint32, bool, error) {
	v, ok, err := r.Get(docKey(name))
	if err != nil || !ok {
		return 0, ok, err
	}
	if len(v) != 4 {
		return 0, false, fmt.Errorf("store: corrupt doc record for %q", name)
	}
	return binary.BigEndian.Uint32(v), true, nil
}

// docIDOf resolves a document's id through r, failing with ErrNotFound
// when r holds no document of that name.
func docIDOf(r reader, name string) (uint32, error) {
	id, ok, err := docIDIn(r, name)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return id, err
}

// documentsIn lists the document names visible through r, sorted.
func documentsIn(r reader) ([]string, error) {
	var names []string
	err := r.AscendPrefix([]byte{'D'}, func(k, v []byte) bool {
		names = append(names, string(k[1:]))
		return true
	})
	sort.Strings(names)
	return names, err
}

// shapeIn loads a document's adorned shape through r.
func shapeIn(r reader, name string) (*shape.Shape, error) {
	id, err := docIDOf(r, name)
	if err != nil {
		return nil, err
	}
	types, err := typesIn(r, id)
	if err != nil {
		return nil, err
	}
	return loadShape(r, id, types)
}

// Shape loads a document's adorned shape from its AdornedShapes rows.
// The rows are read through one view, so a concurrent drop + re-shred
// cannot tear them.
//
// Deprecated: read through View, which every caller in this module
// does; kept only while the benchmark module calls it.
func (s *Store) Shape(name string) (*shape.Shape, error) {
	v := s.View()
	defer v.Close()
	return v.Shape(name)
}

// typesIn loads the type registry (typeID = index) through r.
func typesIn(r reader, id uint32) ([]string, error) {
	var parts [16][]byte
	chunks, err := registryChunks(r, id, parts[:0])
	if err != nil {
		return nil, err
	}
	return splitTypes(joinChunks(chunks)), nil
}

// registryChunks appends the chunks of a document's type registry, read
// through r, to parts. They alias page images.
func registryChunks(r reader, id uint32, parts [][]byte) ([][]byte, error) {
	chunks, ok, err := blobChunks(r, blobKey('T', id), parts)
	if err == nil && !ok {
		err = fmt.Errorf("store: missing type registry for doc %d", id)
	}
	return chunks, err
}

// joinChunks copies chunks once, into one string.
func joinChunks(chunks [][]byte) string {
	var b strings.Builder
	b.Grow(chunksLen(chunks))
	for _, c := range chunks {
		b.Write(c)
	}
	return b.String()
}

// splitTypes splits a type registry's record into its paths.
func splitTypes(raw string) []string {
	if raw == "" {
		return nil
	}
	return strings.Split(raw, "\n")
}

// storedRegistry is a decoded type registry and the record it was
// decoded from.
type storedRegistry struct {
	raw string
	reg *typeRegistry
}

// registry returns the type registry of document id as r sees it. Every
// Doc of a document shares one decoded registry, read-only, for as long
// as the record it was decoded from stays byte for byte the same: a Doc
// reads the record's chunks and compares them, and decodes them only
// when they differ, the first time or after a write registered a type.
// (An updater registers types in a copy of its own.)
func (s *Store) registry(r reader, id uint32) (*typeRegistry, error) {
	var parts [16][]byte
	chunks, err := registryChunks(r, id, parts[:0])
	if err != nil {
		return nil, err
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	c := s.regs[id]
	if c == nil || !chunksEqual(chunks, c.raw) {
		raw := joinChunks(chunks)
		c = &storedRegistry{raw: raw, reg: newTypeRegistry(splitTypes(raw))}
		if s.regs == nil {
			s.regs = map[uint32]*storedRegistry{}
		}
		s.regs[id] = c
	}
	return c.reg, nil
}

// chunksEqual reports whether chunks, joined, are raw.
func chunksEqual(chunks [][]byte, raw string) bool {
	for _, c := range chunks {
		if len(c) > len(raw) || string(c) != raw[:len(c)] {
			return false
		}
		raw = raw[len(c):]
	}
	return raw == ""
}

// Doc is a lazy view over a stored document: type sequences load from the
// store on first use, so a transformation touches only the key ranges of
// the types its target mentions. It implements render.Source.
//
// A Doc reads through the reader it was opened on: Store.Doc binds to the
// live store (every lazy load scans a fresh snapshot of the committed
// state), View.Doc binds to the view's pinned snapshot (every lazy load
// answers from the view's epoch, for as long as the View stays open).
type Doc struct {
	*typeRegistry // shared with other Docs: read-only
	r             reader
	id            uint32
	mu            sync.Mutex
	seqs          map[string]*xmltree.Seq
	err           error // the first error a load hit
}

// docIn opens a lazy document view reading through r.
func (s *Store) docIn(r reader, name string) (*Doc, error) {
	id, err := docIDOf(r, name)
	if err != nil {
		return nil, err
	}
	reg, err := s.registry(r, id)
	if err != nil {
		return nil, err
	}
	return &Doc{typeRegistry: reg, r: r, id: id}, nil
}

// Doc opens a lazy view of a stored document over the live store: each
// type sequence is read at whatever epoch has committed when it loads,
// so one Doc can mix states across types.
//
// Deprecated: use View.Doc, which every caller in this module does;
// kept only while the benchmark module calls it.
func (s *Store) Doc(name string) (*Doc, error) { return s.docIn(s.db, name) }

// Types returns the document's type paths (typeID order).
func (d *Doc) Types() []string { return d.types }

// SeqOfType loads (and caches) the document-ordered sequence of a type:
// one ScanType pass, its Dewey keys and values copied into the
// sequence's arenas. A load that hits a storage error keeps the vertices
// read before it and records the error for Err. The cache is locked
// because a Doc is a handle its holder may render from on several
// goroutines; the engine opens one per request, so the lock is
// uncontended there.
func (d *Doc) SeqOfType(t string) *xmltree.Seq {
	d.mu.Lock()
	s, ok := d.seqs[t]
	d.mu.Unlock()
	if ok {
		return s
	}
	s = xmltree.NewSeq(t)
	sc := d.ScanType(t)
	for sc.Next() {
		s.Append(sc.key, sc.cur)
	}
	err := sc.Err()
	sc.Close()
	d.mu.Lock()
	if d.seqs == nil {
		d.seqs = map[string]*xmltree.Seq{}
	}
	d.seqs[t] = s
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("store: loading type %s: %w", t, err)
	}
	d.mu.Unlock()
	return s
}

// NodesOfType materializes SeqOfType(t): its nodes carry Dewey, Type,
// Name, Value, Attr and, as Ord, their place in the sequence; tree links
// are not reconstructed. A type with no vertices has no nodes.
func (d *Doc) NodesOfType(t string) []*xmltree.Node {
	s := d.SeqOfType(t)
	if s.Len() == 0 {
		return nil
	}
	name, depth := lastSegment(t), xmltree.TypeDepth(t)
	slab := make([]xmltree.Node, s.Len())
	deweys := make(xmltree.Dewey, s.Len()*depth)
	ns := make([]*xmltree.Node, s.Len())
	for i := range ns {
		dw := deweys[i*depth : (i+1)*depth : (i+1)*depth]
		xmltree.DecodeKey(dw, s.Key(i))
		slab[i] = xmltree.Node{Name: name, Type: t, Dewey: dw, Value: string(s.Value(i)), Attr: name[0] == '@', Ord: i}
		ns[i] = &slab[i]
	}
	return ns
}

// Err returns the first storage error a SeqOfType load hit. Such a load
// returns a short sequence, so whatever was built from the Doc's
// sequences is wrong whenever Err is non-nil.
func (d *Doc) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Reconstruct rebuilds the full document tree from the store: its Walk
// into a tree builder. A document whose every node was deleted has no
// roots.
func (d *Doc) Reconstruct() (*xmltree.Document, error) {
	b := xmltree.NewBuilder()
	if err := d.Walk(b.Handler()); err != nil {
		return nil, err
	}
	if b.Last() == nil {
		return &xmltree.Document{}, nil
	}
	return b.Document()
}

// Drop removes a shredded document — its registry entry, shape, type
// registry, and every node record — as one transaction. Space inside the
// store file is reclaimed lazily by the B+tree (no compaction).
func (s *Store) Drop(name string) error {
	return s.commit(func() error {
		id, err := docIDOf(s.db, name)
		if err != nil {
			return err
		}
		return s.removeID(id, docKey(name))
	})
}

// removeID deletes every record keyed by a document id — shape, type
// registry, shape hash, node sequences — and the given registry entry,
// if any, in one transaction. Drop removes a document with it, and a
// failed shred the runs it had already flushed under an id that no
// registry entry will ever name.
func (s *Store) removeID(id uint32, entry ...[]byte) error {
	var b kvstore.Batch
	for _, table := range []byte{'A', 'T', 'H', 'N'} {
		if err := s.db.AscendPrefix(blobKey(table, id), func(k, v []byte) bool {
			b.Delete(append([]byte(nil), k...))
			return true
		}); err != nil {
			return err
		}
	}
	for _, k := range entry {
		b.Delete(k)
	}
	s.regMu.Lock()
	delete(s.regs, id)
	s.regMu.Unlock()
	return s.db.Apply(&b)
}
