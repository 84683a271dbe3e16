package stream

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/xmltree"
)

// A split renders the element kids of a root vertex on several cores: a
// whole-document transformation such as MUTATE site is one root vertex
// whose kid occurrences (regions, categories, people, …) each render a
// disjoint part of the output. Each kid occurrence is a job. Workers
// claim the jobs in order and render each through the one walk
// (render.Emitter) over cursors of their own — Scans keeps one cursor per
// occurrence, so sibling jobs share no cursor state, and they read the
// root vertex only — into fixed-size blocks from a pool. The request
// goroutine writes the blocks to w in document order as they fill,
// returning each to the pool, so the first job's bytes leave as they are
// rendered. The blocks one split holds at once are capped at maxBlocks:
// a worker that would exceed the cap waits, so memory stays constant in
// the document's size.
//
// Only the scan-backed path splits: the join-backed partners keep memo
// maps shared across occurrences and are not safe to share.

const (
	// blockSize is the size of the blocks jobs render into: the size of
	// the daemon's response writes.
	blockSize = 32 << 10
	// maxBlocks caps the blocks one split holds (1 MB); two of them are
	// reserved for the job being written.
	maxBlocks = 32
)

type block struct {
	n   int
	buf [blockSize]byte
}

var blocks = sync.Pool{New: func() any { return new(block) }}

// errStopped ends a job's writes once the split has failed.
var errStopped = errors.New("stream: split stopped")

// splitRoot returns t's root when a run may split it over procs workers:
// a sourced root without RESTRICT requirements whose type has depth 1 —
// the document element, one vertex — with at least two element kids to
// render side by side.
func splitRoot(t *plan.Tree, procs int) *plan.Node {
	if procs < 2 || len(t.Roots) != 1 {
		return nil
	}
	r := t.Roots[0]
	if !r.Sourced || len(r.Reqs) > 0 || xmltree.TypeDepth(r.TN.Source) != 1 {
		return nil
	}
	if len(r.Kids)-attrKids(r) < 2 {
		return nil
	}
	return r
}

// attrKids counts x's attribute kids, which lead its Kids.
func attrKids(x *plan.Node) int {
	n := 0
	for n < len(x.Kids) && x.Kids[n].Attr {
		n++
	}
	return n
}

// split is the state of one root vertex's split, shared by the request
// goroutine and the workers under mu.
type split struct {
	mu   sync.Mutex
	cond sync.Cond
	jobs []job
	// claimed counts the jobs handed to workers, head is the job being
	// written; inUse counts the blocks taken from the pool and not yet
	// returned, held its high-water mark.
	claimed, head, inUse, held int
	// workers is how many there are; nodes and scans count the nodes
	// they wrote and the cursors they opened.
	workers, nodes, scans int
	// err is the first failure — a storage error, a write error, a
	// worker's panic — after which nothing more is written and the
	// workers stop; panicked is the panic's value.
	err      error
	panicked any
}

// job is one kid occurrence's emissions, as the blocks rendered so far.
type job struct {
	kid   *plan.Node
	queue []*block // filled blocks, in order, not yet taken by the writer
	done  bool
}

// executeSplit writes the transformation of t, whose root r splits, to
// w through up to procs workers, reporting in f.
func executeSplit(src Source, t *plan.Tree, r *plan.Node, w io.Writer, indent bool, procs int, f *figures) error {
	s := &Scans{occ: make([]scan, len(t.Nodes))}
	defer s.Close()
	s.open(src, r)
	attrs := attrKids(r)
	for _, k := range r.Kids[:attrs] {
		s.openTree(src, k)
	}
	enc := xmltree.NewEncoder(w, indent)
	em := render.NewEmitter(s, enc)
	defer func() {
		f.nodes, f.bytes, f.scans = f.nodes+enc.Nodes(), enc.Written(), f.scans+s.opened
	}()
	var top render.Vertex
	for v := s.Seek(r, &top); v != nil; v = s.Next(r) {
		em.Open(r, v)
		for _, k := range r.Kids[:attrs] {
			em.Kids(k, v)
		}
		em.Text()
		sp := &split{jobs: make([]job, len(r.Kids)-attrs)}
		for i, k := range r.Kids[attrs:] {
			sp.jobs[i].kid = k
		}
		sp.run(src, t, v, enc, indent, procs, f)
		if sp.panicked != nil {
			panic(sp.panicked)
		}
		if sp.err != nil {
			// Not even the end tag: nothing may follow the failure.
			return sp.err
		}
		em.Close()
	}
	err := s.Err()
	if ferr := enc.Flush(); err == nil {
		err = ferr
	}
	return err
}

// run renders the jobs below vertex v on up to procs workers and splices
// their bytes into enc, whose open element is v's; sp.err holds a
// failure, sp.panicked a worker's panic. It returns — or lets a panic of
// the writer go on — only once every worker has ended and every block
// is back in the pool, and then adds the split to f.
func (sp *split) run(src Source, t *plan.Tree, v *render.Vertex, enc *xmltree.Encoder, indent bool, procs int, f *figures) {
	sp.cond.L = &sp.mu
	sp.workers = min(procs, len(sp.jobs))
	var wg sync.WaitGroup
	wg.Add(sp.workers)
	for i := 0; i < sp.workers; i++ {
		go func() {
			defer wg.Done()
			sp.work(src, t, v, indent)
		}()
	}
	// splicing is the block being written; it is left set only when w
	// panics.
	var splicing *block
	defer func() {
		if splicing != nil {
			sp.release(splicing)
			sp.fail(errStopped) // stop the workers before the panic goes on
		}
		wg.Wait()
		for i := range sp.jobs {
			for _, b := range sp.jobs[i].queue {
				sp.release(b)
			}
			sp.jobs[i].queue = nil
		}
		f.nodes += sp.nodes
		f.scans += sp.scans
		f.jobs, f.workers = len(sp.jobs), max(f.workers, sp.workers)
		f.held, f.out = max(f.held, sp.held), f.out+sp.inUse
	}()
	for i := range sp.jobs {
		for splicing = sp.pop(i); splicing != nil; splicing = sp.pop(i) {
			enc.Splice(splicing.buf[:splicing.n])
			sp.release(splicing)
			if werr := enc.Err(); werr != nil {
				sp.fail(werr)
			}
		}
	}
}

// pop takes job i's next block for the writer, waiting for it to be
// rendered; nil when the job is finished or the split has failed.
func (sp *split) pop(i int) *block {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	j := &sp.jobs[i]
	for sp.err == nil && len(j.queue) == 0 && !j.done {
		sp.cond.Wait()
	}
	if sp.err != nil || len(j.queue) == 0 {
		// The next job is the one being written now: its worker may
		// use the reserve.
		sp.head = i + 1
		sp.cond.Broadcast()
		return nil
	}
	b := j.queue[0]
	j.queue = j.queue[1:]
	return b
}

// release returns a block to the pool.
func (sp *split) release(b *block) {
	blocks.Put(b)
	sp.mu.Lock()
	sp.inUse--
	sp.cond.Broadcast()
	sp.mu.Unlock()
}

// fail records the split's first failure and wakes everyone to stop.
func (sp *split) fail(err error) {
	sp.mu.Lock()
	if sp.err == nil {
		sp.err = err
	}
	sp.cond.Broadcast()
	sp.mu.Unlock()
}

// claim hands a worker the next job, nil when none is left or the split
// has failed.
func (sp *split) claim() *job {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.err != nil || sp.claimed == len(sp.jobs) {
		return nil
	}
	sp.claimed++
	return &sp.jobs[sp.claimed-1]
}

// take hands job j's worker an empty block, waiting while the split is
// at its cap; nil once the split has failed. Jobs not being written may
// fill all but two of maxBlocks. The job being written may use the rest,
// and, once the writer has taken all its filled blocks, one more:
// by then it holds at most the block being written, while the others
// hold at most maxBlocks-2, so the split never holds more than
// maxBlocks, and the job the writer waits for never waits on the others.
func (sp *split) take(j *job) *block {
	sp.mu.Lock()
	for sp.err == nil && !sp.room(j) {
		sp.cond.Wait()
	}
	if sp.err != nil {
		sp.mu.Unlock()
		return nil
	}
	sp.inUse++
	sp.held = max(sp.held, sp.inUse)
	sp.mu.Unlock()
	b := blocks.Get().(*block)
	b.n = 0
	return b
}

func (sp *split) room(j *job) bool {
	if sp.head < len(sp.jobs) && j == &sp.jobs[sp.head] {
		return sp.inUse < maxBlocks || len(j.queue) == 0
	}
	return sp.inUse < maxBlocks-2
}

// work is one worker: it renders the jobs it claims, one after another,
// through one emitter, encoder and cursor table. A panic fails the split,
// and run raises it again on the request goroutine.
func (sp *split) work(src Source, t *plan.Tree, v *render.Vertex, indent bool) {
	s := &Scans{occ: make([]scan, len(t.Nodes))}
	defer s.Close()
	jw := &jobWriter{sp: sp, scans: s}
	enc := xmltree.NewEncoderAt(jw, indent, 1)
	em := render.NewEmitter(s, enc)
	defer func() {
		p := recover()
		if jw.cur != nil {
			sp.release(jw.cur) // cut short by the panic
		}
		if p != nil {
			sp.mu.Lock()
			sp.panicked = p
			sp.mu.Unlock()
			sp.fail(fmt.Errorf("stream: split worker panicked: %v", p))
		}
	}()
	for j := sp.claim(); j != nil; j = sp.claim() {
		jw.job = j
		s.openTree(src, j.kid)
		em.Kids(j.kid, v)
		if enc.Flush() == nil {
			jw.finish()
		}
		s.closeTree(j.kid)
	}
	sp.mu.Lock()
	sp.nodes += enc.Nodes()
	sp.scans += s.opened
	sp.mu.Unlock()
}

// jobWriter is a worker's encoder's writer: it copies the bytes into the
// blocks of the job being rendered and hands each to the writer as it
// fills.
type jobWriter struct {
	sp    *split
	scans *Scans
	job   *job
	cur   *block
}

func (w *jobWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if w.cur == nil {
			if w.cur = w.sp.take(w.job); w.cur == nil {
				return n - len(p), errStopped
			}
		}
		c := copy(w.cur.buf[w.cur.n:], p)
		w.cur.n += c
		p = p[c:]
		if w.cur.n == blockSize && !w.publish() {
			return n - len(p), errStopped
		}
	}
	return n, nil
}

// publish hands the current block to the writer. A block rendered after
// a cursor failed is dropped instead and fails the split: nothing the
// failure may have cut short leaves. Once the split has failed, every
// block is dropped.
func (w *jobWriter) publish() bool {
	b := w.cur
	w.cur = nil
	err := w.scans.Err()
	w.sp.mu.Lock()
	if err == nil && w.sp.err == nil {
		w.job.queue = append(w.job.queue, b)
		w.sp.cond.Broadcast()
		w.sp.mu.Unlock()
		return true
	}
	w.sp.mu.Unlock()
	w.sp.release(b)
	if err != nil {
		w.sp.fail(err)
	}
	return false
}

// finish hands over the job's last, partial block and marks it done.
func (w *jobWriter) finish() {
	if w.cur != nil && !w.publish() {
		return
	}
	if err := w.scans.Err(); err != nil {
		w.sp.fail(err)
		return
	}
	w.sp.mu.Lock()
	w.job.done = true
	w.sp.cond.Broadcast()
	w.sp.mu.Unlock()
}
