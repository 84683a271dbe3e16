package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

func TestWalkPrune(t *testing.T) {
	d := MustParse(`<a><b><c/></b><d/></a>`)
	var visited []string
	d.Root().Walk(func(n *Node) bool {
		visited = append(visited, n.Name)
		return n.Name != "b" // prune below b
	})
	if strings.Join(visited, ",") != "a,b,d" {
		t.Errorf("pruned walk = %v", visited)
	}
}

func TestOriginChains(t *testing.T) {
	a := &Node{Name: "a"}
	b := &Node{Name: "b", Src: a}
	c := &Node{Name: "c", Src: b}
	if c.Origin() != a {
		t.Error("Origin should follow the chain to the root")
	}
	if a.Origin() != a {
		t.Error("Origin of an original is itself")
	}
}

func TestIndentedSerialization(t *testing.T) {
	d := MustParse(`<a><b>x</b><c/></a>`)
	out := d.XML(true)
	want := "<a>\n  <b>x</b>\n  <c/>\n</a>\n"
	if out != want {
		t.Errorf("indented = %q, want %q", out, want)
	}
}

// TestEncoderEscapes: only attribute values escape the double quote,
// and a value handed over with Borrow is escaped as its copy is.
func TestEncoderEscapes(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b, false)
	e.Start("a")
	e.Attr("k", Borrow(`a"b<c`))
	e.Attr("j", []byte(`a"b<c`))
	e.Text(Borrow(`1 < 2 & "q"`))
	e.Text([]byte(`1 > 2 & "q"`))
	e.End()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `<a k="a&quot;b&lt;c" j="a&quot;b&lt;c">1 &lt; 2 &amp; "q"1 &gt; 2 &amp; "q"</a>`
	if b.String() != want {
		t.Errorf("encoded %q, want %q", b.String(), want)
	}
	if e.Nodes() != 3 {
		t.Errorf("Nodes = %d, want 3", e.Nodes())
	}
}

func TestAttrText(t *testing.T) {
	d := MustParse(`<a k="v"/>`)
	attr := d.NodesOfType("a.@k")[0]
	if attr.Text() != "v" {
		t.Errorf("attr Text = %q", attr.Text())
	}
}

// TestParseNeverPanics feeds random byte soup to the parser: errors are
// fine, panics are not.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []byte(`<>/="ab &;!-`)
	for i := 0; i < 3000; i++ {
		n := rng.Intn(40)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", buf, r)
				}
			}()
			_, _ = ParseString(string(buf))
		}()
	}
}

func TestSerializeParseFixpoint(t *testing.T) {
	// After one round trip the serialized form is a fixpoint.
	srcs := []string{
		`<a x="1"><b>t</b><c/></a>`,
		`<r><p>one</p><p a="b">two</p></r>`,
	}
	for _, src := range srcs {
		once := MustParse(src).XML(false)
		twice := MustParse(once).XML(false)
		if once != twice {
			t.Errorf("not a fixpoint: %q -> %q", once, twice)
		}
	}
}
