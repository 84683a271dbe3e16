package store_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"xmorph/internal/engine"
	"xmorph/internal/kvstore"
	"xmorph/internal/store"
)

// The crash sweep runs a recorded workload — shred, a stored morph
// render, a second shred, a drop — on the fault-injecting filesystem,
// simulates a crash at every write index, reopens, and checks the store
// file is byte-identical to a commit-point oracle: the state before or
// after the commit the crash interrupted, never anything in between. A
// control sweep that loses the write-ahead log at the crash demonstrates
// the harness detects what the log prevents.

const crashSweepGuard = "CAST MUTATE catalog"

// crashSweepDoc builds a small deterministic catalog document (a few
// dozen pages shredded — enough for multi-page commits and buffer-pool
// eviction at the sweep's 16-page cache, small enough to re-run the
// workload hundreds of times).
func crashSweepDoc(items int, tag string) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, "<item id=\"%s-%03d\"><name>widget %s %d</name><price>%d.%02d</price><desc>%s</desc></item>",
			tag, i, tag, i, i*3+1, i%100, strings.Repeat(tag+"-filler ", 6))
	}
	b.WriteString("</catalog>")
	return b.String()
}

var (
	crashDoc1 = crashSweepDoc(60, "aa")
	crashDoc2 = crashSweepDoc(40, "bb")
)

// runCrashWorkload replays the recorded workload on fs. commit fires
// after each step that ends in a completed Sync — the oracle run uses it
// to snapshot commit-point images, crash runs to count completed steps.
// The first error (the injected crash) aborts the run.
func runCrashWorkload(fs *kvstore.FaultFS, commit func()) error {
	st, err := store.Open("crash.db", store.WithKVOptions(&kvstore.Options{CachePages: 16, FS: fs}))
	if err != nil {
		return err
	}
	if _, err := st.Shred("doc1", strings.NewReader(crashDoc1), nil); err != nil {
		return err
	}
	commit()
	// Stored morph render: read-only, but it drives the buffer pool
	// exactly as production does.
	if _, err := engine.New(st).Run(context.Background(), "doc1", crashSweepGuard, engine.RunOpts{StreamTo: io.Discard}); err != nil {
		return err
	}
	if _, err := st.Shred("doc2", strings.NewReader(crashDoc2), nil); err != nil {
		return err
	}
	commit()
	if err := st.Drop("doc1"); err != nil {
		return err
	}
	commit()
	if err := st.Close(); err != nil {
		return err
	}
	commit()
	return nil
}

// crashOracle holds the fault-free run's commit-point images: images[0]
// is the initial empty store, images[k] the store file after the k-th
// completed step.
type crashOracle struct {
	images [][]byte
	writes int64
}

func recordCrashOracle(t *testing.T) crashOracle {
	t.Helper()
	fs := kvstore.NewFaultFS()
	o := crashOracle{images: [][]byte{nil}} // nil = empty initial file
	err := runCrashWorkload(fs, func() {
		o.images = append(o.images, fs.FileBytes("crash.db"))
	})
	if err != nil {
		t.Fatalf("oracle run failed: %v", err)
	}
	o.writes = fs.Writes()
	if o.writes == 0 {
		t.Fatal("oracle run performed no writes")
	}
	return o
}

// reopenAfterCrash clears the faults (the reboot) and reopens the store.
func reopenAfterCrash(fs *kvstore.FaultFS) (*store.Store, error) {
	fs.ClearFaults()
	return store.Open("crash.db", store.WithKVOptions(&kvstore.Options{CachePages: 16, FS: fs}))
}

// readEverything walks every stored document's every type sequence,
// returning the first corruption it hits.
func readEverything(st *store.Store) error {
	v := st.View()
	defer v.Close()
	docs, err := v.Documents()
	if err != nil {
		return err
	}
	for _, name := range docs {
		d, err := v.Doc(name)
		if err != nil {
			return err
		}
		for _, typ := range d.Types() {
			d.NodesOfType(typ)
		}
		if _, err := d.Reconstruct(); err != nil {
			return err
		}
	}
	return nil
}

// TestCrashSweepDurable is the acceptance sweep: every crash point
// recovers to the adjacent pre- or post-commit image, byte-for-byte, and
// everything on disk is readable.
func TestCrashSweepDurable(t *testing.T) {
	oracle := recordCrashOracle(t)
	variants := []struct {
		tear int
		drop bool
	}{
		{tear: 0, drop: false},    // crash write fully lost
		{tear: 1234, drop: false}, // crash write torn mid-page
		{tear: 0, drop: true},     // all unsynced data lost with it
	}
	replays := 0
	for idx := int64(0); idx < oracle.writes; idx++ {
		for _, v := range variants {
			fs := kvstore.NewFaultFS()
			fs.CrashAfter(idx, v.tear, v.drop)
			completed := 0
			err := runCrashWorkload(fs, func() { completed++ })
			if err == nil || !fs.Crashed() {
				t.Fatalf("idx %d: crash never fired (err=%v)", idx, err)
			}
			st, err := reopenAfterCrash(fs)
			if err != nil {
				t.Fatalf("idx %d (tear %d, drop %v): reopen: %v", idx, v.tear, v.drop, err)
			}
			img := fs.FileBytes("crash.db")
			pre := oracle.images[completed]
			post := oracle.images[completed+1]
			switch {
			case bytes.Equal(img, post):
				if st.Stats().Recoveries == 1 {
					replays++
				}
			case bytes.Equal(img, pre):
				// Commit never became durable; fine.
			default:
				t.Fatalf("idx %d (tear %d, drop %v): store is neither the pre- nor the post-commit image of step %d (%d bytes)",
					idx, v.tear, v.drop, completed+1, len(img))
			}
			if err := readEverything(st); err != nil {
				t.Fatalf("idx %d (tear %d, drop %v): recovered store unreadable: %v", idx, v.tear, v.drop, err)
			}
			st.Close()
		}
	}
	if replays == 0 {
		t.Error("no crash point exercised WAL replay; the sweep is not covering the in-place phase")
	}
}

// TestCrashSweepControlDetectsCorruption runs the same sweep but loses
// the write-ahead log with the crash, and requires that it catches at
// least one crash point where committed data is corrupted or lost —
// proving the harness can detect exactly the failures the log exists to
// prevent. (Without the log, a crash inside the in-place phase leaves a
// half-written tree that nothing replays.)
func TestCrashSweepControlDetectsCorruption(t *testing.T) {
	oracle := recordCrashOracle(t)
	bad := 0
	for idx := int64(0); idx < oracle.writes; idx++ {
		fs := kvstore.NewFaultFS()
		fs.CrashAfter(idx, 2048, false)
		err := runCrashWorkload(fs, func() {})
		if err == nil || !fs.Crashed() {
			t.Fatalf("idx %d: crash never fired (err=%v)", idx, err)
		}
		fs.ClearFaults()
		if err := fs.Remove("crash.db.wal"); err != nil && !os.IsNotExist(err) {
			t.Fatalf("idx %d: lose the log: %v", idx, err)
		}
		st, err := reopenAfterCrash(fs)
		if err != nil {
			bad++ // reopen refused: torn/corrupt store detected
			continue
		}
		img := fs.FileBytes("crash.db")
		matched := false
		for _, o := range oracle.images {
			if bytes.Equal(img, o) {
				matched = true
				break
			}
		}
		if !matched || readEverything(st) != nil {
			bad++
		}
		st.Close()
	}
	if bad == 0 {
		t.Fatal("lost-log sweep found no corrupting crash point; the harness cannot detect what the WAL prevents")
	}
	t.Logf("control sweep: %d/%d crash points corrupted or lost committed state", bad, oracle.writes)
}
