// Package store implements the shredded XML store of Section VIII (Figure
// 8): documents are shredded into a B+tree holding, per document, an
// adorned-shape record, a type registry, and one document-ordered node
// sequence per type (the paper's AdornedShapes, Nodes, TypeToSequence, and
// GroupedSequence tables collapse into key ranges of a single ordered
// store).
//
// Key layout (all integers big-endian, so lexicographic key order is
// document order within a type):
//
//	'D' name                     -> docID (u32)
//	'S' docID chunk              -> adorned shape blob
//	'T' docID chunk              -> type registry blob ("\n"-joined paths)
//	'H' docID                    -> shape hash (u64, FNV-1a of the 'S' blob)
//	'N' docID typeID dewey chunk -> node text value
//
// A node's key embeds its Dewey number as a sequence of u32 components;
// all nodes of one type share a depth, so the per-type range scans in
// document order with no comparator tricks.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
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
}

// Sentinel errors, wrapped with the document's name by the verbs that
// return them.
var (
	// ErrNotFound reports an operation on a document the store does not
	// hold.
	ErrNotFound = errors.New("store: document not found")
	// ErrExists reports a shred of a name the store already holds.
	ErrExists = errors.New("store: document already shredded")
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

// Open opens (or creates) a store file.
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
	return &Store{db: db}, nil
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
func (v *View) Doc(name string) (*Doc, error) { return docIn(v.snap, name) }

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
	nodeKeyChunk = 2 // the chunk index appendBlobChunks appends

	// A node at the deepest level the XML scan admits still fits a key.
	_ = uint(kvstore.MaxKeySize - (nodeKeyHead + 4*xmltree.MaxDepth + nodeKeyChunk))
)

// nodePrefix builds 'N' docID typeID dewey…: with no Dewey number the
// prefix of a type's whole sequence, with a node's the prefix of its
// records and of its subtree's in a descendant type.
func nodePrefix(docID, typeID uint32, dewey xmltree.Dewey) []byte {
	return appendNodePrefix(make([]byte, 0, nodeKeyHead+4*len(dewey)+nodeKeyChunk), docID, typeID, dewey)
}

// appendNodePrefix appends nodePrefix(docID, typeID, dewey) to dst.
func appendNodePrefix(dst []byte, docID, typeID uint32, dewey xmltree.Dewey) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, 'N'), docID)
	dst = binary.BigEndian.AppendUint32(dst, typeID)
	for _, c := range dewey {
		dst = binary.BigEndian.AppendUint32(dst, uint32(c))
	}
	return dst
}

// nodeKey builds the key of one chunk of a node's record.
func nodeKey(docID, typeID uint32, dewey xmltree.Dewey, chunk uint16) []byte {
	return binary.BigEndian.AppendUint16(nodePrefix(docID, typeID, dewey), chunk)
}

// splitNodeKey takes a node key apart into its still-encoded Dewey
// number (a view into k, four bytes per level) and its chunk index; ok
// is false for a key too short to be a node key.
func splitNodeKey(k []byte) (dewey []byte, chunk uint16, ok bool) {
	if len(k) < nodeKeyHead+nodeKeyChunk {
		return nil, 0, false
	}
	end := len(k) - nodeKeyChunk
	return k[nodeKeyHead:end], binary.BigEndian.Uint16(k[end:]), true
}

// ordinalAt reads level i (0 = root) of an encoded Dewey number.
func ordinalAt(dewey []byte, i int) int { return int(binary.BigEndian.Uint32(dewey[4*i:])) }

// withOrdinal returns a copy of node key k with level i of its Dewey
// number set to v.
func withOrdinal(k []byte, i, v int) []byte {
	nk := append([]byte(nil), k...)
	binary.BigEndian.PutUint32(nk[nodeKeyHead+4*i:], uint32(v))
	return nk
}

// decodeDewey fills dst from an encoded Dewey number of the same depth.
func decodeDewey(dst xmltree.Dewey, dewey []byte) {
	for i := range dst {
		dst[i] = ordinalAt(dewey, i)
	}
}

// appendBlobChunks appends the chunked records of one blob to the
// parallel key/value slices: chunk i of a value lives under key+i, and
// chunk 0 carries a 2-byte chunk-count header. The records' bytes are
// copied into arena — extended, or replaced by a block twice its size
// once full — which is returned, so they outlive key and val. The
// shredder accumulates them into per-type sorted runs in one arena it
// reuses after every flush; the shred's tail and an update's overlay
// take them one blob at a time.
func appendBlobChunks(arena []byte, keys, vals [][]byte, key, val []byte) ([]byte, [][]byte, [][]byte, error) {
	n := (len(val) + chunkSize - 1) / chunkSize
	if n == 0 {
		n = 1
	}
	if n > 1<<16-1 {
		return arena, keys, vals, fmt.Errorf("store: blob too large (%d bytes)", len(val))
	}
	if need := n*(len(key)+nodeKeyChunk) + 2 + len(val); cap(arena)-len(arena) < need {
		// A fresh block, not a copy: records already taken from the old
		// one keep it alive.
		arena = make([]byte, 0, max(need, 2*cap(arena)))
	}
	for i := 0; i < n; i++ {
		at := len(arena)
		arena = binary.BigEndian.AppendUint16(append(arena, key...), uint16(i))
		keys = append(keys, arena[at:len(arena):len(arena)])
		at = len(arena)
		if i == 0 {
			arena = binary.BigEndian.AppendUint16(arena, uint16(n))
		}
		arena = append(arena, val[i*chunkSize:min((i+1)*chunkSize, len(val))]...)
		vals = append(vals, arena[at:len(arena):len(arena)])
	}
	return arena, keys, vals, nil
}

// getBlob reassembles a chunked value through r.
func getBlob(r reader, key []byte) ([]byte, bool, error) {
	ck := make([]byte, len(key)+2)
	copy(ck, key)
	first, ok, err := r.Get(ck)
	if err != nil || !ok {
		return nil, ok, err
	}
	if len(first) < 2 {
		return nil, false, fmt.Errorf("store: corrupt blob header")
	}
	n := int(binary.BigEndian.Uint16(first))
	out := append([]byte(nil), first[2:]...)
	for i := 1; i < n; i++ {
		binary.BigEndian.PutUint16(ck[len(key):], uint16(i))
		chunk, ok, err := r.Get(ck)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, fmt.Errorf("store: blob missing chunk %d of %d", i, n)
		}
		out = append(out, chunk...)
	}
	return out, true, nil
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
	blob, ok, err := getBlob(r, blobKey('S', id))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("store: document %q has no shape record", name)
	}
	return decodeShape(string(blob))
}

// Shape loads a document's adorned shape from the AdornedShapes record.
// The chunked record is read through one view, so a concurrent drop +
// re-shred cannot tear it.
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
	blob, ok, err := getBlob(r, blobKey('T', id))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("store: missing type registry for doc %d", id)
	}
	if len(blob) == 0 {
		return nil, nil
	}
	return strings.Split(string(blob), "\n"), nil
}

// encodeShape serializes a shape as "edge parent child min max" and
// "type t" lines.
func encodeShape(sh *shape.Shape) string {
	var b strings.Builder
	for _, t := range sh.Types() {
		b.WriteString("type ")
		b.WriteString(t)
		b.WriteString("\n")
	}
	for _, r := range sh.Roots() {
		var walk func(t string)
		walk = func(t string) {
			for _, c := range sh.Children(t) {
				card, _ := sh.Card(t, c)
				fmt.Fprintf(&b, "edge %s %s %d %d\n", t, c, card.Min, card.Max)
				walk(c)
			}
		}
		walk(r)
	}
	return b.String()
}

func decodeShape(enc string) (*shape.Shape, error) {
	sh := shape.New()
	for _, line := range strings.Split(enc, "\n") {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "type":
			if len(fields) != 2 {
				return nil, fmt.Errorf("store: corrupt shape line %q", line)
			}
			sh.AddType(fields[1])
		case "edge":
			if len(fields) != 5 {
				return nil, fmt.Errorf("store: corrupt shape line %q", line)
			}
			min, err1 := strconv.Atoi(fields[3])
			max, err2 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("store: corrupt shape cardinality %q", line)
			}
			if err := sh.AddEdge(fields[1], fields[2], shape.Card{Min: min, Max: max}); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("store: corrupt shape line %q", line)
		}
	}
	return sh, nil
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
	*typeRegistry
	r     reader
	id    uint32
	mu    sync.Mutex
	cache map[string][]*xmltree.Node
}

// docIn opens a lazy document view reading through r.
func docIn(r reader, name string) (*Doc, error) {
	id, err := docIDOf(r, name)
	if err != nil {
		return nil, err
	}
	types, err := typesIn(r, id)
	if err != nil {
		return nil, err
	}
	return &Doc{typeRegistry: newTypeRegistry(types), r: r, id: id, cache: map[string][]*xmltree.Node{}}, nil
}

// Doc opens a lazy view of a stored document over the live store: each
// type sequence is read at whatever epoch has committed when it loads,
// so one Doc can mix states across types.
//
// Deprecated: use View.Doc, which every caller in this module does;
// kept only while the benchmark module calls it.
func (s *Store) Doc(name string) (*Doc, error) { return docIn(s.db, name) }

// Types returns the document's type paths (typeID order).
func (d *Doc) Types() []string { return d.types }

// NodesOfType loads (and caches) the document-ordered node sequence of a
// type: one ScanType pass, materialized. The nodes carry Dewey, Type,
// Name, Value, and Attr — everything the closest join and renderer need;
// tree links are not reconstructed. The cache is locked because a Doc is
// a handle its holder may render from on several goroutines; the engine
// opens one per request, so the lock is uncontended there.
func (d *Doc) NodesOfType(t string) []*xmltree.Node {
	d.mu.Lock()
	ns, ok := d.cache[t]
	d.mu.Unlock()
	if ok {
		return ns
	}
	sc := d.ScanType(t)
	for sc.Next() {
		ns = append(ns, &xmltree.Node{Name: sc.name, Type: t, Dewey: sc.Dewey().Clone(),
			Value: string(sc.Value()), Attr: sc.attr, Ord: len(ns)})
	}
	sc.Close()
	d.mu.Lock()
	d.cache[t] = ns
	d.mu.Unlock()
	return ns
}

// Size returns the total number of stored vertices across all types. It
// counts header chunks in one key scan over the document's node range —
// no values are decoded and nothing is materialized or cached.
func (d *Doc) Size() int {
	n := 0
	_ = d.r.AscendPrefix(blobKey('N', d.id), func(k, v []byte) bool {
		if _, chunk, ok := splitNodeKey(k); ok && chunk == 0 {
			n++
		}
		return true
	})
	return n
}

// Reconstruct rebuilds the full document tree from the store in document
// order — the work the eXist baseline performs when it dumps a stored
// document (Section IX's comparison query). It merges every type sequence
// by Dewey number and reattaches parentage.
func (d *Doc) Reconstruct() (*xmltree.Document, error) {
	var all []*xmltree.Node
	for _, t := range d.types {
		all = append(all, d.NodesOfType(t)...)
	}
	if len(all) == 0 {
		return &xmltree.Document{}, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Dewey.Compare(all[j].Dewey) < 0 })
	b := xmltree.NewBuilder()
	depth := 0
	for _, n := range all {
		for depth >= len(n.Dewey) {
			b.End()
			depth--
		}
		if len(n.Dewey) != depth+1 {
			return nil, fmt.Errorf("store: reconstruct: node %s at depth %d under depth %d", n.Dewey, len(n.Dewey)-1, depth)
		}
		if n.Attr {
			b.Attr(n.LocalName(), n.Value)
			continue
		}
		b.Elem(n.Name)
		if n.Value != "" {
			b.Text(n.Value)
		}
		depth++
	}
	for depth > 0 {
		b.End()
		depth--
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
	for _, table := range []byte{'S', 'T', 'H', 'N'} {
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
	return s.db.Apply(&b)
}
