package stream

import (
	"math/rand"
	"testing"

	"xmorph/internal/xmltree"
)

// TestCmpPrefixMatchesDeweyOrder: comparing encoded Dewey numbers as
// bytes orders them as xmltree.Dewey.Compare does, for a prefix of every
// depth. Ordinals straddle every byte boundary of the big-endian uint32
// encoding (255/256, 65 535/65 536, 2^24) so a carry into a higher byte
// cannot hide, and each prefix is either d's own (inside: 0) or d's with
// one level moved to a nearby ordinal.
func TestCmpPrefixMatchesDeweyOrder(t *testing.T) {
	edges := []int{0, 1, 2, 254, 255, 256, 257, 65534, 65535, 65536, 65537,
		1<<24 - 1, 1 << 24, 1<<24 + 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}
	rng := rand.New(rand.NewSource(34))
	ordinal := func() int {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return int(rng.Uint32())
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	for n := 0; n < 20000; n++ {
		d := make(xmltree.Dewey, 1+rng.Intn(8))
		for i := range d {
			d[i] = ordinal()
		}
		for depth := 0; depth <= len(d); depth++ {
			p := d[:depth].Clone()
			if depth > 0 && rng.Intn(4) != 0 {
				i := rng.Intn(depth)
				if rng.Intn(2) == 0 {
					p[i] = ordinal()
				} else {
					// A neighbour: the ordinal one byte boundary or one
					// step away, clamped to the encodable range.
					p[i] = min(max(p[i]+[]int{-256, -1, 1, 256}[rng.Intn(4)], 0), 1<<32-1)
				}
			}
			want := sign(d[:depth].Compare(p))
			if got := cmpPrefix(encodeDewey(nil, d), encodeDewey(nil, p)); got != want {
				t.Fatalf("cmpPrefix(%v, %v) = %d, Dewey order says %d", d, p, got, want)
			}
		}
	}
}
