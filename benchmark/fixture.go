package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"xmorph/internal/engine"
)

// fixture is one set-up: the generated inputs, a durable store under its
// own directory holding the main document, and the xmorphd handler behind
// a loopback test server. The flush policy is the same on every
// workload: durability on, one Sync per acknowledged write (the engine
// syncs inside Shred, Update and Drop).
type fixture struct {
	spec    *workloadSpec
	seed    int64
	in      *inputs
	dir     string
	eng     *engine.Engine
	srv     *httptest.Server
	client  *http.Client
	clients int
	// inFlight is the server's admission cap: the clients, plus the
	// writer of a concurrent mixed window.
	inFlight int
	pool     int // buffer pool pages in force
	// mainPages is the store file's size in pages once the main document
	// is shredded.
	mainPages int64

	mu sync.Mutex
	// held is the set of acknowledged, not yet dropped documents; the
	// post-run check wants every one present.
	held map[string]bool
	// ingested sums the XML bytes of every acknowledged document, dropped
	// ones included: what the store file's size is held against.
	ingested int64
	// shredSeq numbers POSTed documents so names never repeat.
	shredSeq int

	// decks deal each reader its queries and writerRng seeds the patch
	// scripts; both carry across phases (one writer at a time uses the rng).
	decks []*deck
	yard  *yardstick
	// setupSeconds is what the set-up took, at the reference speed.
	setupSeconds float64
	writerRng    *rand.Rand
}

func storePath(dir string) string { return filepath.Join(dir, "store.db") }

// xmlBytesPerPage estimates store pages from XML bytes for pool sizing.
const xmlBytesPerPage = 1800.0

// setUp does everything a run needs before its first request and is what
// setup_s times: generate the inputs from the seed, compute the reference
// outputs, open the store, shred the main document, start the server.
// An end-to-end run has one client; concurrent asks for the traced run's
// untraced window instead: the workload's readers side by side, and the
// writer beside them in mixed. The fixture's setupSeconds is what all of
// it took, at the yardstick's reference speed.
func setUp(spec *workloadSpec, sc scale, seed int64, dir string, concurrent bool) (*fixture, error) {
	clock := startRefClock(newYardstick())
	// About two generated sf 0.05 documents in a hundred cannot be stored:
	// kvstore splits an overfull leaf at its byte middle, and beside two
	// 1400-byte value chunks one half can still exceed the page (README.md,
	// "Things the benchmark found"). Such a seed moves on to its next main
	// document, so every seed has inputs, and the same seed the same ones.
	for attempt := 0; ; attempt++ {
		f, err := setUpOnce(spec, sc, seed, attempt, dir, concurrent, clock)
		if err == nil || attempt == 3 || !strings.Contains(err.Error(), "node overflows page") {
			return f, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
}

func setUpOnce(spec *workloadSpec, sc scale, seed int64, attempt int, dir string, concurrent bool, clock *refClock) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in, err := buildInputs(spec, sc, seed, attempt)
	if err != nil {
		return nil, err
	}
	clock.lap()
	f := &fixture{spec: spec, seed: seed, in: in, dir: dir, held: map[string]bool{}, clients: 1, inFlight: 1, yard: clock.yard}
	if concurrent {
		f.clients = min(spec.clients, runtime.NumCPU())
		f.inFlight = f.clients
		if spec.main == phaseMixed {
			f.inFlight++
		}
	}
	for c := 0; c < f.clients; c++ {
		f.decks = append(f.decks, newDeck(in, seed, c, f.clients))
	}
	f.writerRng = rand.New(rand.NewSource(seed*17 + 3))

	f.pool = spec.poolPages
	if spec.coldShare > 0 {
		// The pool is fixed at Open, before the page count is known, so
		// size it from the XML: the shredder yields one 4 KiB page per
		// ~1800 XML bytes at every scale tried (sf 0.005 to 0.2).
		f.pool = max(int(float64(len(in.main.xml))/xmlBytesPerPage*spec.coldShare), 16)
	}
	if err := f.open(); err != nil {
		return nil, err
	}
	if _, err := f.eng.Shred(context.Background(), "main", bytes.NewReader(in.main.xml), nil); err != nil {
		f.close()
		return nil, fmt.Errorf("set-up shred: %w", err)
	}
	f.acked("main", len(in.main.xml))
	clock.lap()
	// Reopen before serving: a shred leaves every page it wrote in the
	// pool, over capacity, until later inserts push them out (eviction
	// runs on insert only). A fresh pool is empty and holds to its size,
	// so the cold workload is cold from its first request and the hot one
	// fills during warm-up.
	if err := f.eng.Close(); err != nil {
		return nil, fmt.Errorf("set-up close: %w", err)
	}
	if err := f.open(); err != nil {
		return nil, err
	}
	st, err := os.Stat(storePath(dir))
	if err != nil {
		f.close()
		return nil, err
	}
	f.mainPages = st.Size() / 4096

	f.serve()
	f.setupSeconds = clock.lap()
	return f, nil
}

// serve puts the xmorphd handler over the open store on loopback:
// request tracing off, no access log, as many admitted requests as
// there are clients.
func (f *fixture) serve() {
	srv := engine.NewServer(f.eng, engine.ServerConfig{
		TraceSample:        -1,
		SlowQueryThreshold: -1,
		MaxInFlight:        f.inFlight,
	})
	f.srv = httptest.NewServer(srv.Handler())
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: f.inFlight,
		DisableCompression:  true,
	}}
}

func (f *fixture) open() error {
	eng, err := engine.Open(storePath(f.dir), engine.WithCachePages(f.pool), engine.WithDurability(true))
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	f.eng = eng
	return nil
}

// close stops the server and closes the store; the directory stays.
func (f *fixture) close() error {
	if f.srv != nil {
		f.client.CloseIdleConnections()
		f.srv.Close()
		f.srv = nil
	}
	if f.eng == nil {
		return nil
	}
	err := f.eng.Close()
	f.eng = nil
	return err
}

func (f *fixture) nextShredName(tag string) (string, document) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.in.pool[f.shredSeq%len(f.in.pool)]
	name := fmt.Sprintf("%s-%06d", tag, f.shredSeq)
	f.shredSeq++
	return name, d
}

func (f *fixture) acked(name string, xmlBytes int) {
	f.mu.Lock()
	f.held[name] = true
	f.ingested += int64(xmlBytes)
	f.mu.Unlock()
}

func (f *fixture) dropped(name string) {
	f.mu.Lock()
	delete(f.held, name)
	f.mu.Unlock()
}

// postCheck closes the store, reopens it and verifies what the run
// acknowledged: no WAL recovery was needed, every held document is
// listed, and every mix guard over the stored main document equals
// core.Transform over Doc.Reconstruct() — the stored document after all
// patches, rebuilt and transformed without the executors under test.
func (f *fixture) postCheck() error {
	if err := f.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := f.open(); err != nil {
		return err
	}
	defer f.close()
	if r := f.eng.Stats().Recoveries; r != 0 {
		return fmt.Errorf("reopen replayed the WAL (%d recoveries) after a clean close", r)
	}
	ctx := context.Background()
	names, err := f.eng.Docs(ctx, nil)
	if err != nil {
		return err
	}
	present := map[string]bool{}
	for _, n := range names {
		present[n] = true
	}
	f.mu.Lock()
	var missing []string
	for n := range f.held {
		if !present[n] {
			missing = append(missing, n)
		}
	}
	f.mu.Unlock()
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%d acknowledged documents missing after reopen, first %q", len(missing), missing[0])
	}
	if len(names) != len(f.held) {
		return fmt.Errorf("store lists %d documents, %d were acknowledged and not dropped", len(names), len(f.held))
	}

	doc, err := f.eng.Store().Doc("main")
	if err != nil {
		return err
	}
	tree, err := doc.Reconstruct()
	if err != nil {
		return fmt.Errorf("reconstruct: %w", err)
	}
	classes := make([]string, 0, len(mixGuards))
	for class := range mixGuards {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		g := mixGuards[class]
		want, err := transformBytes(g, tree)
		if err != nil {
			return err
		}
		var got bytes.Buffer
		if _, err := f.eng.Run(ctx, "main", g, engine.RunOpts{StreamTo: &got}); err != nil {
			return fmt.Errorf("checksum query %s: %w", class, err)
		}
		if sha256.Sum256(got.Bytes()) != sha256.Sum256(want) {
			return fmt.Errorf("checksum query %s: stored document answers %d bytes, reference %d, contents differ", class, got.Len(), len(want))
		}
	}
	return nil
}

// setUpMedian sets up reps times, each in its own directory, keeps the
// last fixture and returns the median set-up time.
func setUpMedian(spec *workloadSpec, sc scale, seed int64, workdir string, reps int) (*fixture, float64, error) {
	var times []float64
	var f *fixture
	for i := 0; i < reps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, 0, err
			}
			os.RemoveAll(f.dir)
		}
		// Each set-up starts from a collected heap, so neither its time nor
		// the process's peak memory depends on when the collector last ran.
		runtime.GC()
		var err error
		if f, err = setUp(spec, sc, seed, filepath.Join(workdir, fmt.Sprintf("%s-setup%d", spec.name, i)), false); err != nil {
			return nil, 0, err
		}
		times = append(times, f.setupSeconds)
	}
	return f, median(times), nil
}
