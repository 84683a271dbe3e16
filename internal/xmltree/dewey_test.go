package xmltree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseDewey(t *testing.T) {
	tests := []struct {
		in      string
		want    Dewey
		wantErr bool
	}{
		{"1", Dewey{1}, false},
		{"1.1.2", Dewey{1, 1, 2}, false},
		{"1.12.3", Dewey{1, 12, 3}, false},
		{"", nil, true},
		{"1..2", nil, true},
		{"1.0", nil, true},
		{"1.-2", nil, true},
		{"a.b", nil, true},
	}
	for _, tt := range tests {
		got, err := ParseDewey(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseDewey(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && !got.Equal(tt.want) {
			t.Errorf("ParseDewey(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestDeweyStringRoundTrip(t *testing.T) {
	for _, s := range []string{"1", "1.2", "1.1.2", "1.10.3.4"} {
		d, err := ParseDewey(s)
		if err != nil {
			t.Fatalf("ParseDewey(%q): %v", s, err)
		}
		if d.String() != s {
			t.Errorf("round trip %q -> %q", s, d.String())
		}
	}
}

func TestDeweyLevelAndChild(t *testing.T) {
	root := Dewey{1}
	if root.Level() != 0 {
		t.Errorf("root level = %d, want 0", root.Level())
	}
	c := root.Child(3)
	if got := c.String(); got != "1.3" {
		t.Errorf("child = %s, want 1.3", got)
	}
	if c.Level() != 1 {
		t.Errorf("child level = %d, want 1", c.Level())
	}
	// Child must not alias the parent's storage.
	c2 := root.Child(4)
	if got := c.String(); got != "1.3" {
		t.Errorf("after second Child, first = %s, want 1.3", got)
	}
	if got := c2.String(); got != "1.4" {
		t.Errorf("second child = %s, want 1.4", got)
	}
}

func TestDeweyCompareDocumentOrder(t *testing.T) {
	// Preorder: ancestors before descendants, siblings left to right.
	order := []string{"1", "1.1", "1.1.1", "1.1.2", "1.2", "1.2.1", "1.3"}
	var ds []Dewey
	for _, s := range order {
		d, _ := ParseDewey(s)
		ds = append(ds, d)
	}
	shuffled := make([]Dewey, len(ds))
	copy(shuffled, ds)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sort.Slice(shuffled, func(i, j int) bool { return shuffled[i].Compare(shuffled[j]) < 0 })
	if !reflect.DeepEqual(shuffled, ds) {
		t.Errorf("sorted order = %v, want %v", shuffled, ds)
	}
}

// TestDeweyDistancePaperExample reproduces the Section VII walk-through:
// publisher 1.1.3 vs titles 1.1.1 and 1.2.1.
func TestDeweyDistancePaperExample(t *testing.T) {
	pub, _ := ParseDewey("1.1.3")
	t1, _ := ParseDewey("1.1.1")
	t2, _ := ParseDewey("1.2.1")
	if d := pub.Distance(t1); d != 2 {
		t.Errorf("distance(1.1.3, 1.1.1) = %d, want 2", d)
	}
	if d := pub.Distance(t2); d != 4 {
		t.Errorf("distance(1.1.3, 1.2.1) = %d, want 4", d)
	}
}

// randomDewey generates numbers with bounded depth/width for quick checks.
func randomDewey(r *rand.Rand) Dewey {
	depth := 1 + r.Intn(6)
	d := make(Dewey, depth)
	d[0] = 1
	for i := 1; i < depth; i++ {
		d[i] = 1 + r.Intn(4)
	}
	return d
}

func TestDeweyDistanceProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomDewey(r))
		vals[1] = reflect.ValueOf(randomDewey(r))
	}}
	// Symmetry, identity, and triangle inequality over a shared tree.
	if err := quick.Check(func(a, b Dewey) bool {
		if a.Distance(b) != b.Distance(a) {
			return false
		}
		if a.Distance(a) != 0 {
			return false
		}
		return a.Distance(b) >= 0
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestDeweyCompareConsistentWithDistanceZero(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomDewey(r))
		vals[1] = reflect.ValueOf(randomDewey(r))
	}}
	if err := quick.Check(func(a, b Dewey) bool {
		return (a.Compare(b) == 0) == (a.Distance(b) == 0)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestCompareKeyPrefixMatchesDeweyOrder: comparing Dewey keys as bytes
// orders them as Dewey.Compare does, for a prefix of every
// depth. Ordinals straddle every byte boundary of the big-endian uint32
// encoding (255/256, 65 535/65 536, 2^24) so a carry into a higher byte
// cannot hide, and each prefix is either d's own (inside: 0) or d's with
// one level moved to a nearby ordinal.
func TestCompareKeyPrefixMatchesDeweyOrder(t *testing.T) {
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
		d := make(Dewey, 1+rng.Intn(8))
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
			if got := CompareKeyPrefix(AppendKey(nil, d), AppendKey(nil, p)); got != want {
				t.Fatalf("CompareKeyPrefix(%v, %v) = %d, Dewey order says %d", d, p, got, want)
			}
		}
	}
}
