package store

import (
	"bytes"
	"cmp"
	"slices"
)

// overlay holds an update's pending writes, puts and tombstones, in key
// order, the newest write of a key winning. Every write appends its
// record to one arena and the record's place to tail, in write order, so
// a fragment's records — which arrive out of key order, its types
// interleaving — cost an append apiece. The first scan after writes
// sorts the tail into a run of its own, and a run at least half as long
// as the one below it merges into that one: the runs' lengths more than
// halve from the oldest to the newest, so there are O(log n) of them and
// each record is sorted once and merged O(log n) times, O(n log n) in
// all however writes and scans interleave.
//
// Records are never changed in place and the arena only grows, so the
// key and value slices a scan hands out stay valid, and a later record
// lies further into the arena: of two records of one key, the one with
// the larger offset is the newer.
type overlay struct {
	arena []byte
	tail  []chunk   // in write order
	runs  [][]chunk // each in key order, one record per key; oldest first
}

// tombstone is the value length of a record that deletes its key.
const tombstone = ^uint32(0)

// key and val return a record's bytes, capped at their ends as
// appendRecords caps them: the batch hands them to the kvstore uncopied.
func (o *overlay) key(c chunk) []byte {
	k := c.at + c.kl
	return o.arena[c.at:k:k]
}

func (o *overlay) val(c chunk) []byte {
	k, e := c.at+c.kl, c.at+c.kl+c.vl
	return o.arena[k:e:e]
}

// putChunks writes a value's chunked records.
func (o *overlay) putChunks(key, val []byte) error {
	var err error
	o.arena, o.tail, err = appendChunks(o.arena, o.tail, key, val)
	return err
}

// put writes one record verbatim.
func (o *overlay) put(k, v []byte) {
	at := len(o.arena)
	o.arena = append(append(o.arena, k...), v...)
	o.tail = append(o.tail, chunk{uint32(at), uint32(len(k)), uint32(len(v))})
}

// del writes a tombstone for k.
func (o *overlay) del(k []byte) {
	at := len(o.arena)
	o.arena = append(o.arena, k...)
	o.tail = append(o.tail, chunk{uint32(at), uint32(len(k)), tombstone})
}

// order sorts records by key, the newest of a key last.
func (o *overlay) order(a, b chunk) int {
	if c := bytes.Compare(o.key(a), o.key(b)); c != 0 {
		return c
	}
	return cmp.Compare(a.at, b.at)
}

// settle sorts the tail into a run, keeping the newest record of each
// key, and merges runs until each is more than twice the next.
func (o *overlay) settle() {
	if len(o.tail) == 0 {
		return
	}
	slices.SortFunc(o.tail, o.order)
	run := o.tail[:0]
	for _, c := range o.tail {
		if n := len(run); n > 0 && bytes.Equal(o.key(run[n-1]), o.key(c)) {
			run[n-1] = c
		} else {
			run = append(run, c)
		}
	}
	o.runs, o.tail = append(o.runs, run), nil
	for n := len(o.runs); n >= 2 && 2*len(o.runs[n-1]) >= len(o.runs[n-2]); n-- {
		o.runs[n-2] = o.merge(o.runs[n-2], o.runs[n-1])
		o.runs = o.runs[:n-1]
	}
}

// merge merges two runs into a new one, the newer record of a key
// winning.
func (o *overlay) merge(a, b []chunk) []chunk {
	out := make([]chunk, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := bytes.Compare(o.key(a[0]), o.key(b[0])); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			if a[0].at > b[0].at {
				out = append(out, a[0])
			} else {
				out = append(out, b[0])
			}
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// seek settles the overlay and returns a cursor on its records under
// prefix, each run's range found by binary search. Writes made while the
// cursor is in use go to the tail, which it does not read.
func (o *overlay) seek(prefix []byte) *cursor {
	o.settle()
	c := &cursor{o: o, prefix: prefix, pos: make([]int, len(o.runs))}
	for r, run := range o.runs {
		c.pos[r], _ = slices.BinarySearchFunc(run, prefix, func(e chunk, p []byte) int { return bytes.Compare(o.key(e), p) })
	}
	return c
}

// cursor walks an overlay's records under a prefix in key order, the
// newest record of each key, tombstones included.
type cursor struct {
	o      *overlay
	prefix []byte
	pos    []int // per run, its next record
}

// next returns the least key's newest record and moves past every record
// of that key; ok is false once no record under the prefix is left.
func (c *cursor) next() (rec chunk, ok bool) {
	var least []byte
	for r, run := range c.o.runs {
		if c.pos[r] == len(run) {
			continue
		}
		e := run[c.pos[r]]
		k := c.o.key(e)
		if !bytes.HasPrefix(k, c.prefix) {
			c.pos[r] = len(run)
			continue
		}
		if !ok {
			rec, least, ok = e, k, true
		} else if d := bytes.Compare(k, least); d < 0 || d == 0 && e.at > rec.at {
			rec, least = e, k
		}
	}
	if !ok {
		return rec, false
	}
	for r, run := range c.o.runs {
		if c.pos[r] < len(run) && bytes.Equal(c.o.key(run[c.pos[r]]), least) {
			c.pos[r]++
		}
	}
	return rec, true
}
