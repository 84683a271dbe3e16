package logical

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"

	"xmorph/internal/core"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/store"
)

// peopleAt shreds XMark at the factor and returns the store view, the
// people guard compiled against it, and the number of persons — the
// benchmark query's bindings.
func peopleAt(t *testing.T, factor float64) (*store.View, *core.Checked, int) {
	t.Helper()
	doc := xmark.Generate(xmark.Config{Factor: factor, Seed: 42})
	v, sh := shredded(t, doc)
	checked, err := core.Check(peopleGuard, sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v, checked, len(doc.NodesOfType("site.people.person"))
}

// TestEvaluatePerBindingAllocs: run per binding, the benchmark's logical
// query allocates at most 12 times more per binding as the document grows
// from XMark sf 0.005 to sf 0.02 (the whole-tree path allocated 22 times
// per binding).
func TestEvaluatePerBindingAllocs(t *testing.T) {
	const perBinding = 12
	var allocs [2]float64
	var bindings [2]int
	for i, factor := range []float64{0.005, 0.02} {
		v, checked, n := peopleAt(t, factor)
		bindings[i] = n
		allocs[i] = testing.AllocsPerRun(10, func() {
			res, err := EvaluateChecked(peopleQuery, checked, "x", storedDoc(t, v), nil)
			if err != nil || !res.PerBinding {
				t.Fatalf("per binding %v, err %v", res != nil && res.PerBinding, err)
			}
		})
	}
	growth := (allocs[1] - allocs[0]) / float64(bindings[1]-bindings[0])
	t.Logf("%.0f allocs over %d bindings, %.0f over %d: %.1f per binding", allocs[0], bindings[0], allocs[1], bindings[1], growth)
	if growth > perBinding {
		t.Errorf("%.1f allocs per binding, want at most %d", growth, perBinding)
	}
}

// TestEvaluatePeakHeapFlat: run per binding, the benchmark's logical
// query holds one binding's subtree at a time, so the heap it adds while
// it runs stays flat from XMark sf 0.01 to sf 0.05 — five times the
// bindings. Both stores stay live throughout, so the collector marks the
// same heap in both measurements. The answer itself grows with the
// document, by about 12 KB; the whole-tree path's projection grew by
// hundreds of kilobytes.
func TestEvaluatePeakHeapFlat(t *testing.T) {
	const slack = 128 << 10
	var peaks [2]uint64
	var evals [2]func()
	for i, factor := range []float64{0.01, 0.05} {
		v, checked, _ := peopleAt(t, factor)
		evals[i] = func() {
			if _, err := EvaluateChecked(peopleQuery, checked, "x", storedDoc(t, v), nil); err != nil {
				t.Fatal(err)
			}
		}
		evals[i]() // warm the page cache
	}
	for i, eval := range evals {
		peaks[i] = peakHeap(eval)
	}
	t.Logf("peak heap added: %d KB at sf 0.01, %d KB at sf 0.05", peaks[0]>>10, peaks[1]>>10)
	if peaks[1] > peaks[0]+slack {
		t.Errorf("peak heap grew from %d KB to %d KB, want at most %d KB more", peaks[0]>>10, peaks[1]>>10, slack>>10)
	}
}

// peakHeap returns the most heap eval keeps live above what was live
// before it: the largest live heap any collection during eval finds,
// under a collector that runs every few dozen kilobytes. A collection
// also counts what eval allocates while it marks, so the least of five
// rounds is taken.
func peakHeap(eval func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	least := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		least = min(least, peakRound(eval))
	}
	return least
}

func peakRound(eval func()) uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	base, peak := sample[0].Value.Uint64(), uint64(0)
	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: sample[0].Name}}
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
			}
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			runtime.Gosched()
		}
	}()
	<-started
	for i := 0; i < 4; i++ {
		eval()
	}
	close(stop)
	wg.Wait()
	return max(peak, base) - base
}
