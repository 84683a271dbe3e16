package main

import (
	"fmt"
	"math"
)

// agree compares two full sets of runs of the same code and prints the
// per-metric spread, so that a demotion is decided from data. It fails
// when an end-to-end metric's two values differ by more than the metric's
// bound, or a count that must repeat exactly differs at all.
func agree(a, b *report) bool {
	ok := true
	fmt.Println("\n== agreement of two sets on the same code")
	for i, ra := range a.Runs {
		rb := b.Runs[i]
		if ra.Traced {
			for _, name := range exactCounts {
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				verdict := "ok"
				if va != vb {
					verdict, ok = "DIFFERS", false
				}
				fmt.Printf("   %-10s %-40s %14.4f %14.4f  exact   %s\n", ra.Workload, name, va, vb, verdict)
			}
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			spread := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(spread <= d.Bound) {
				verdict, ok = "OVER BOUND", false
			}
			fmt.Printf("   %-10s %-40s %14.4f %14.4f  %5.1f%% of %4.0f%%  %s\n", ra.Workload, d.Name, va, vb, spread*100, d.Bound*100, verdict)
		}
	}
	return ok
}
