package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one finished request.
type sample struct {
	kind    phaseKind
	class   string
	start   time.Time
	latency time.Duration // request sent → reply fully read
	ttfb    time.Duration // request sent → first body byte
	bytes   int           // shred: XML bytes sent; query: body bytes read
	status  int
	err     error // non-nil: the operation failed and has no latency
	// duringWrite marks a query that started while a write was in flight.
	duringWrite bool
}

// sender issues ops for one client goroutine and reuses its read buffer.
type sender struct {
	f   *fixture
	buf []byte
	acc bytes.Buffer
}

func newSender(f *fixture) *sender { return &sender{f: f, buf: make([]byte, 64<<10)} }

// do sends o and verifies the reply. Any non-2xx status (429 included), a
// transport error, a truncated stream or a wrong checksum fails the op.
func (s *sender) do(o op) sample {
	sm := sample{kind: o.kind, class: o.class}
	req, err := http.NewRequest(o.method, s.f.srv.URL+o.path, bytes.NewReader(o.body))
	if err != nil {
		sm.err = err
		return sm
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	sm.start = time.Now()
	resp, err := s.f.client.Do(req)
	if err != nil {
		sm.err = err
		return sm
	}
	defer resp.Body.Close()
	sm.status = resp.StatusCode

	// Stream the body through the hash; keep it only when the check needs
	// to parse it (small JSON replies) or look at its tail.
	h := sha256.New()
	keep := o.check == checkAnswer || o.check == checkCreated
	s.acc.Reset()
	var tail [7]byte
	for {
		n, rerr := resp.Body.Read(s.buf)
		if n > 0 {
			if sm.bytes == 0 {
				sm.ttfb = time.Since(sm.start)
			}
			sm.bytes += n
			if keep {
				s.acc.Write(s.buf[:n])
			} else {
				h.Write(s.buf[:n])
			}
			if n >= len(tail) {
				copy(tail[:], s.buf[n-len(tail):n])
			} else {
				copy(tail[:], tail[n:])
				copy(tail[len(tail)-n:], s.buf[:n])
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			sm.err = fmt.Errorf("%s %s: reading reply: %w", o.method, o.path, rerr)
			return sm
		}
	}
	sm.latency = time.Since(sm.start)
	if sm.bytes == 0 {
		sm.ttfb = sm.latency
	}
	if o.kind == phaseShred {
		sm.bytes = len(o.body)
	}

	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		sm.err = fmt.Errorf("%s %s (%s): status %d", o.method, o.path, o.class, resp.StatusCode)
		return sm
	}
	switch o.check {
	case checkBody:
		var got [sha256.Size]byte
		h.Sum(got[:0])
		if got != o.want {
			sm.err = fmt.Errorf("%s: reply of %d bytes differs from the reference", o.class, sm.bytes)
		}
	case checkAnswer:
		var reply struct {
			Answer string `json:"answer"`
		}
		if err := json.Unmarshal(s.acc.Bytes(), &reply); err != nil {
			sm.err = fmt.Errorf("%s: reply is not JSON: %w", o.class, err)
		} else if sha256.Sum256([]byte(reply.Answer)) != o.want {
			sm.err = fmt.Errorf("%s: answer of %d bytes differs from the reference", o.class, len(reply.Answer))
		}
	case checkTail:
		if string(tail[:]) != "</site>" {
			sm.err = fmt.Errorf("%s: stream of %d bytes does not end with </site>", o.class, sm.bytes)
		}
	case checkCreated:
		var reply struct {
			Nodes int `json:"nodes"`
		}
		if resp.StatusCode != http.StatusCreated {
			sm.err = fmt.Errorf("shred %s: status %d, want 201", o.path, resp.StatusCode)
		} else if err := json.Unmarshal(s.acc.Bytes(), &reply); err != nil {
			sm.err = fmt.Errorf("shred %s: reply is not JSON: %w", o.path, err)
		} else if reply.Nodes != o.nodes {
			sm.err = fmt.Errorf("shred %s: stored %d nodes, document has %d", o.path, reply.Nodes, o.nodes)
		}
	}
	return sm
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	samples []sample
	// decks holds the summed latency of every complete deck of the mix (20
	// queries) and patchCycles that of every complete round of the write
	// cycle's 8 patches. Rates come from the median entry, so a stall that
	// hits a few rounds does not move them.
	decks       []time.Duration
	patchCycles []time.Duration
}

// runSerial drives one phase of an end-to-end window for dur with a
// single closed-loop client: one request at a time, the next one sent
// when the reply to the last is fully read, until the deadline (the
// request in flight completes and counts). With one request in flight the
// process leaves a core to the collector and to whatever else the shared
// host runs, and the yardstick can be read between requests: once before
// every deck of queries and every write, so each sample's times are put
// at the reference speed by the readings on either side of it.
func (f *fixture) runSerial(kind phaseKind, dur time.Duration) phaseResult {
	var res phaseResult
	s := newSender(f)
	d := f.decks[0]
	d.reshuffle()
	deadline := time.Now().Add(dur)
	live := func() bool { return time.Now().Before(deadline) }

	// rescale reads the yardstick and puts the samples since the reading
	// before at the reference speed; it returns their summed latency.
	before, first := f.yard.read(), 0
	rescale := func() (sum time.Duration) {
		after := f.yard.read()
		k := toRef(before, after)
		for i := first; i < len(res.samples); i++ {
			sm := &res.samples[i]
			sm.latency = time.Duration(float64(sm.latency) * k)
			sm.ttfb = time.Duration(float64(sm.ttfb) * k)
			sum += sm.latency
		}
		before, first = after, len(res.samples)
		return sum
	}
	send := func(o op) sample {
		sm := s.do(o)
		res.samples = append(res.samples, sm)
		return sm
	}

	// deck sends one whole deck of the mix; an unfinished one is no cycle.
	deck := func() bool {
		for range mixDeck {
			if !live() {
				rescale()
				return false
			}
			send(d.draw())
		}
		res.decks = append(res.decks, rescale())
		return true
	}
	// The write cycle is 8 patches, one POST and, in mixed, a DELETE of the
	// document the cycle before posted; step sends the cycle's i-th request.
	var patches time.Duration
	var posted, last string
	steps := len(patchCycle) + 1
	if kind == phaseMixed {
		steps++
	}
	step := func(i int) {
		switch i %= steps; {
		case i < len(patchCycle):
			send(patchOp(patchCycle[i], "promo", f.in.cats, f.writerRng))
			patches += rescale()
			if i == len(patchCycle)-1 {
				res.patchCycles = append(res.patchCycles, patches)
				patches = 0
			}
		case i == len(patchCycle):
			name, doc := f.nextShredName("doc")
			posted = ""
			if sm := send(shredOp(name, doc)); sm.err == nil {
				f.acked(name, len(doc.xml))
				posted = name
			}
			rescale()
		default:
			if last != "" {
				if sm := send(dropOp(last)); sm.err == nil {
					f.dropped(last)
				}
				rescale()
			}
			last = posted
		}
	}
	switch kind {
	case phaseQuery:
		for deck() {
		}
	case phaseShred:
		for live() {
			step(len(patchCycle))
		}
	case phaseWrite:
		for i := 0; live(); i++ {
			step(i)
		}
	case phaseMixed:
		// Two writes after every deck: reads and writes share the window
		// about evenly.
		for i := 0; deck(); i += 2 {
			step(i)
			step(i + 1)
		}
	}
	return res
}

// runConcurrent drives the traced run's untraced window: kind for dur
// with f.clients readers at once, beside the writer in mixed. Every
// client is closed-loop like runSerial's. Only the samples are kept: the
// tail latencies, the status codes and which queries ran beside a write.
func (f *fixture) runConcurrent(kind phaseKind, dur time.Duration) phaseResult {
	var res phaseResult
	deadline := time.Now().Add(dur)
	live := func() bool { return time.Now().Before(deadline) }
	var mu sync.Mutex
	var wg sync.WaitGroup
	var writing atomic.Int32

	reader := func(client int) {
		defer wg.Done()
		s := newSender(f)
		d := f.decks[client] // carried across phases, so fresh guards stay never-seen
		var mine []sample
		for live() {
			o := d.draw()
			busy := writing.Load() > 0
			sm := s.do(o)
			sm.duringWrite = busy
			mine = append(mine, sm)
		}
		mu.Lock()
		res.samples = append(res.samples, mine...)
		mu.Unlock()
	}

	// The writer posts documents; in mixed it runs the whole write cycle.
	writer := func(cycle bool) {
		defer wg.Done()
		s := newSender(f)
		var mine []sample
		var prev string
		send := func(o op) sample {
			writing.Add(1)
			sm := s.do(o)
			writing.Add(-1)
			mine = append(mine, sm)
			return sm
		}
		for live() {
			if cycle {
				for _, kind := range patchCycle {
					if live() {
						send(patchOp(kind, "promo", f.in.cats, f.writerRng))
					}
				}
				if !live() {
					break
				}
			}
			name, d := f.nextShredName("doc")
			if sm := send(shredOp(name, d)); sm.err != nil {
				continue
			}
			f.acked(name, len(d.xml))
			if cycle {
				if prev != "" {
					if sm := send(dropOp(prev)); sm.err == nil {
						f.dropped(prev)
					}
				}
				prev = name
			}
		}
		mu.Lock()
		res.samples = append(res.samples, mine...)
		mu.Unlock()
	}

	readers := 0
	if kind != phaseShred {
		readers = f.clients
	}
	wg.Add(readers)
	for c := 0; c < readers; c++ {
		go reader(c)
	}
	if kind != phaseQuery {
		wg.Add(1)
		go writer(kind == phaseMixed)
	}
	wg.Wait()
	return res
}
