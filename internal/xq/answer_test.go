package xq

import (
	"strings"
	"testing"

	"xmorph/internal/xmltree"
)

// TestAttributeItemEscaped: an attribute item serializes as name="value"
// with its value escaped as in a start tag, so the answer is well-formed.
func TestAttributeItemEscaped(t *testing.T) {
	e := New()
	e.Bind("d", xmltree.MustParse(`<r><a k="x&quot;y&lt;z"/></r>`))
	got, err := e.QueryXML(`doc("d")//a/@k`)
	if err != nil {
		t.Fatal(err)
	}
	if want := `k="x&quot;y&lt;z"`; got != want {
		t.Errorf("attribute item = %s, want %s", got, want)
	}
}

// TestSerializeAllocs: serializing node items allocates a fixed number
// of times plus the answer's own growth, not once or more per item.
func TestSerializeAllocs(t *testing.T) {
	allocs := func(items int) float64 {
		d := xmltree.MustParse("<r>" + strings.Repeat(`<b i="1">t<c/></b>`, items) + "</r>")
		seq := make(Sequence, items)
		for i, n := range d.Root().Children {
			seq[i] = n
		}
		return testing.AllocsPerRun(20, func() { Serialize(seq) })
	}
	few, many := allocs(10), allocs(1000)
	t.Logf("%.0f allocs for 10 node items, %.0f for 1000", few, many)
	if many > few+12 {
		t.Errorf("%.0f allocs for 1000 node items against %.0f for 10: serializing allocates per item", many, few)
	}
}

// TestAnswerSpacingAcrossParts: an answer added to a part at a time reads
// as Serialize of the whole sequence.
func TestAnswerSpacingAcrossParts(t *testing.T) {
	d := xmltree.MustParse(`<r><a>x</a><b k="v"/></r>`)
	a, b := d.Root().Children[0], d.Root().Children[1]
	whole := Sequence{a, "s", 2.0, a, b.Children[0], "t"}
	var ans Answer
	for _, part := range []Sequence{whole[:1], nil, whole[1:3], whole[3:5], whole[5:]} {
		ans.Add(part)
	}
	if got, want := ans.String(), Serialize(whole); got != want {
		t.Errorf("answer in parts = %q, whole = %q", got, want)
	}
}
