package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/update"
)

// The atomicity tests check that every store verb commits as one
// transaction: readers racing a verb see the document before it or after
// it, never a state between, and concurrent verbs on one document apply
// one after the other. CI runs them under -race on two cores.

// books builds a <lib> of n books, each with a title and a year: 3n+1
// nodes.
func books(n int) string {
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<book><title>t%d</title><year>%d</year></book>", i, 1900+i%100)
	}
	b.WriteString("</lib>")
	return b.String()
}

// readWhile runs read on two goroutines, over and over, until write
// returns, and returns write's error and the number of reads.
func readWhile(t *testing.T, write func() error, read func() error) (error, int64) {
	t.Helper()
	var (
		done  atomic.Bool
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if err := read(); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	err := write()
	done.Store(true)
	wg.Wait()
	return err, reads.Load()
}

// TestAtomicDrop: readers racing a Drop find the whole document — its
// shape and every node — or no document at all, and the Drop publishes
// one epoch.
func TestAtomicDrop(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(books(1500)), nil); err != nil {
		t.Fatal(err)
	}
	const nodes = 3*1500 + 1
	before := s.Stats().Epoch
	err, reads := readWhile(t, func() error { return s.Drop("d") }, func() error {
		v := s.View()
		defer v.Close()
		d, err := v.Doc("d")
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reader during Drop: %w", err)
		}
		if _, err := v.Shape("d"); err != nil {
			return fmt.Errorf("reader during Drop: %w", err)
		}
		if n := d.Size(); n != nodes {
			return fmt.Errorf("reader during Drop saw %d of %d nodes", n, nodes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Epoch - before; got != 1 {
		t.Errorf("Drop published %d epochs, want 1", got)
	}
	t.Logf("%d reads during the Drop", reads)
}

// TestAtomicUpdate: readers racing an Update that deletes 3,000 nodes
// see the old node count or the new one, and the Update publishes one
// epoch.
func TestAtomicUpdate(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(books(1000)), nil); err != nil {
		t.Fatal(err)
	}
	ops, err := update.Parse("delete lib.book")
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Epoch
	err, reads := readWhile(t, func() error {
		_, err := s.Update("d", ops, nil)
		return err
	}, func() error {
		v := s.View()
		defer v.Close()
		d, err := v.Doc("d")
		if err != nil {
			return fmt.Errorf("reader during Update: %w", err)
		}
		if n := d.Size(); n != 3001 && n != 1 {
			return fmt.Errorf("reader during Update saw %d nodes, want 3001 or 1", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Epoch - before; got != 1 {
		t.Errorf("Update published %d epochs, want 1", got)
	}
	t.Logf("%d reads during the Update", reads)
}

// TestAtomicConcurrentUpdates: two writers each inserting 40 books into
// one document, one Update at a time, leave all 81 books: no Update
// builds its overlay on a state another one is about to replace.
func TestAtomicConcurrentUpdates(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader("<lib><book/></lib>"), nil); err != nil {
		t.Fatal(err)
	}
	ops, err := update.Parse("insert <book/> into lib")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := s.Update("d", ops, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	d, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.NodesOfType("lib.book")); got != 81 {
		t.Errorf("%d books after 2x40 concurrent inserts, want 81", got)
	}
}

// TestAtomicConcurrentShreds: of two shreds of one name racing each
// other, exactly one succeeds and the other fails with ErrExists, leaving
// the store holding one document and no records of the loser.
func TestAtomicConcurrentShreds(t *testing.T) {
	xml := xmark.Generate(xmark.Config{Factor: 0.002, Seed: 3}).XML(false)
	single := OpenMemory()
	defer single.Close()
	if _, err := single.Shred("d", strings.NewReader(xml), nil); err != nil {
		t.Fatal(err)
	}
	want := records(t, single)
	for round := 0; round < 3; round++ {
		s := OpenMemory()
		errs := make([]error, 2)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, errs[i] = s.Shred("d", strings.NewReader(xml), nil)
			}(i)
		}
		close(start)
		wg.Wait()
		won, lost := 0, 0
		for _, err := range errs {
			switch {
			case err == nil:
				won++
			case errors.Is(err, ErrExists):
				lost++
			default:
				t.Fatalf("round %d: shred failed: %v", round, err)
			}
		}
		if won != 1 || lost != 1 {
			t.Fatalf("round %d: %d shreds succeeded and %d failed with ErrExists, want one each", round, won, lost)
		}
		if got := records(t, s); got != want {
			t.Errorf("round %d: store holds %s, a single shred %s", round, got, want)
		}
		s.Close()
	}
}

// records summarizes a store's records per table, outside the document-ID
// counter, and checks that each one belongs to a named document.
func records(t *testing.T, s *Store) string {
	t.Helper()
	v := s.View()
	defer v.Close()
	names, err := v.Documents()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint32]bool{}
	for _, name := range names {
		id, _, err := v.DocVersion(name)
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = true
	}
	var out []string
	for _, table := range []byte{'D', 'H', 'N', 'S', 'T'} {
		n := 0
		if err := s.db.AscendPrefix([]byte{table}, func(k, v []byte) bool {
			if table != 'D' && !ids[binary.BigEndian.Uint32(k[1:])] {
				t.Errorf("record %q belongs to no document", k)
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%c:%d", table, n))
	}
	return strings.Join(out, " ")
}
