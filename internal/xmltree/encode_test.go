package xmltree

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestEncodeRoundTripsEveryValue: a carriage return survives the
// round trip in text and attribute values, and a newline or tab in an
// attribute value is written as a reference, which a conforming reader
// does not normalize to a space.
func TestEncodeRoundTripsEveryValue(t *testing.T) {
	for _, c := range []struct{ src, compact, attr, text string }{
		{`<a k="x&#13;y">p&#13;q</a>`, `<a k="x&#xD;y">p&#xD;q</a>`, "x\ry", "p\rq"},
		{`<a k="x&#10;y&#9;z">p&#10;q&#9;r&#13;&#10;s</a>`, "<a k=\"x&#xA;y&#x9;z\">p\nq\tr&#xD;\ns</a>", "x\ny\tz", "p\nq\tr\r\ns"},
	} {
		d := MustParse(c.src)
		if got := d.XML(false); got != c.compact {
			t.Errorf("%s: encoded %q, want %q", c.src, got, c.compact)
		}
		for _, indent := range []bool{false, true} {
			back, err := ParseString(d.XML(indent))
			if err != nil {
				t.Fatalf("%s (indent %v): reparse: %v", c.src, indent, err)
			}
			r := back.Root()
			if r.Value != c.text || len(r.Children) != 1 || r.Children[0].Value != c.attr {
				t.Errorf("%s (indent %v): read back %q, want text %q and attribute %q",
					c.src, indent, back.XML(false), c.text, c.attr)
			}
		}
	}
}

// FuzzEncodeRoundTrip encodes one element with an attribute and text,
// compact and indented: Parse must read back the same name and values,
// and the bytes must be the pre-block encoder's except at the references
// for "\r" (and, in attribute values, "\n" and "\t").
func FuzzEncodeRoundTrip(f *testing.F) {
	for _, s := range [][3]string{
		{"a", "v", "t"},
		{"item", `x"<&>'y`, `1 < 2 & ]]> "q"`},
		{"é", "x\r\ny\tz\n", "p\rq\r\nr\ts"},
		{"a", "", " \r\n"},
		{"b", " ", "日本\U0001F600"},
		{"p:a", "", ""},
		{"a b", "", ""},
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, name, attr, text string) {
		if !isXMLName(name) || !isXMLText(attr) || !isXMLText(text) {
			t.Skip()
		}
		d := NewBuilder().Elem(name).Attr("k", attr).Text(text).End().MustDocument()
		wantText := text
		if strings.TrimSpace(text) == "" {
			wantText = "" // Parse drops blank character data
		}
		// The oracle writes the newly escaped bytes as placeholders, which
		// no XML text holds, then the placeholders become references.
		marks := strings.NewReplacer("\r", "\x01", "\n", "\x02", "\t", "\x03")
		refs := strings.NewReplacer("\x01", "&#xD;", "\x02", "&#xA;", "\x03", "&#x9;")
		for _, indent := range []bool{false, true} {
			var got, want strings.Builder
			if err := d.WriteXML(&got, indent); err != nil {
				t.Fatal(err)
			}
			o := newOracleEncoder(&want, indent)
			o.Start(name)
			o.Attr("k", marks.Replace(attr))
			o.Text(strings.ReplaceAll(text, "\r", "\x01"))
			o.End()
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			if w := refs.Replace(want.String()); got.String() != w {
				t.Fatalf("indent %v: encoded %q, want %q", indent, got.String(), w)
			}
			back, err := ParseString(got.String())
			if err != nil {
				t.Fatalf("indent %v: reparse %q: %v", indent, got.String(), err)
			}
			r := back.Root()
			if r.Name != name || r.Value != wantText || len(r.Children) != 1 || r.Children[0].Value != attr {
				t.Fatalf("indent %v: %q read back as %q", indent, got.String(), back.XML(false))
			}
		}
	})
}

// isXMLName reports whether the scanner reads name back as itself.
func isXMLName(name string) bool {
	d, err := ParseString("<" + name + "/>")
	return err == nil && d.Root().Name == name && len(d.Root().Children) == 0
}

// isXMLText reports whether s is UTF-8 made of XML characters only.
func isXMLText(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if !(r == '\t' || r == '\n' || r == '\r' || ' ' <= r && r <= 0xD7FF ||
			0xE000 <= r && r <= 0xFFFD || 0x10000 <= r) {
			return false
		}
	}
	return true
}

// TestEncoderAllocs: an encoding costs the encoder and its block,
// whatever the size of the tree.
func TestEncoderAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{1000, 10000} {
		b := NewBuilder().Elem("site")
		for i := 1; i < n; i += 2 {
			b.Elem("item").Attr("id", fmt.Sprint(i)).Text("x < y").End()
		}
		d := b.End().MustDocument()
		for _, indent := range []bool{false, true} {
			allocs := testing.AllocsPerRun(5, func() {
				if err := d.WriteXML(io.Discard, indent); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d nodes, indent %v: %.0f allocations", d.Size(), indent, allocs)
			counts = append(counts, allocs)
		}
	}
	for _, a := range counts {
		if a != counts[0] || a > 2 {
			t.Fatalf("allocations per WriteXML %v, want the same count, at most 2, at every size", counts)
		}
	}
}

// TestEncoderWrites: the writer receives whole blocks, a short write
// sticks as io.ErrShortWrite, and Written counts what the writer took.
func TestEncoderWrites(t *testing.T) {
	b := NewBuilder().Elem("r")
	for i := 0; i < 500; i++ {
		b.Leaf("e", "0123456789")
	}
	d := b.End().MustDocument()

	var sizes []int
	rec := writerFunc(func(p []byte) (int, error) { sizes = append(sizes, len(p)); return len(p), nil })
	e := NewEncoder(rec, false)
	d.Root().Replay(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range sizes {
		if i < len(sizes)-1 && (n < block || n >= block+64) {
			t.Errorf("write %d of %d is %d bytes, want one block", i, len(sizes), n)
		}
		total += n
	}
	if want := d.XML(false); len(sizes) < 2 || total != len(want) || e.Written() != int64(total) {
		t.Errorf("%d writes of %d bytes, Written %d, want %d bytes in blocks", len(sizes), total, e.Written(), len(want))
	}

	short := writerFunc(func(p []byte) (int, error) { return len(p) - 1, nil })
	e = NewEncoder(short, false)
	d.Root().Replay(e)
	if err := e.Flush(); !errors.Is(err, io.ErrShortWrite) || e.Written() != int64(sizes[0]-1) {
		t.Errorf("short writer: Flush = %v, Written %d", err, e.Written())
	}
}

// TestEncoderSplice: a root's children encoded one run of siblings at a
// time by NewEncoderAt encoders and spliced back write the bytes one
// encoder writes, compact and indented, with or without the root's text
// and attributes; an empty splice leaves a childless root self-closing.
func TestEncoderSplice(t *testing.T) {
	for _, src := range []string{
		`<r k="1">t<a x="2"><b>u</b></a><a/><c>v</c></r>`,
		`<r><a><b><c/></b></a><c>v</c><a>w</a></r>`,
		`<r k="1"/>`,
		`<r>t</r>`,
	} {
		d := MustParse(src)
		root := d.Root()
		for _, indent := range []bool{false, true} {
			var out strings.Builder
			e := NewEncoder(&out, indent)
			e.Start(root.Name)
			var kids []*Node
			for _, k := range root.Children {
				if k.Attr {
					e.Attr(k.LocalName(), Borrow(k.Value))
				} else {
					kids = append(kids, k)
				}
			}
			e.Text(Borrow(root.Value))
			e.Splice(nil)
			// Every child in a splice of its own, then all of them in one.
			for _, group := range [][]*Node{kids[:min(1, len(kids))], kids[min(1, len(kids)):]} {
				var part strings.Builder
				pe := NewEncoderAt(&part, indent, 1)
				for _, k := range group {
					k.Replay(pe)
				}
				if err := pe.Flush(); err != nil {
					t.Fatal(err)
				}
				e.Splice([]byte(part.String()))
			}
			e.End()
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := d.XML(indent); out.String() != want {
				t.Errorf("%s indent %v:\nspliced: %q\nwant:    %q", src, indent, out.String(), want)
			}
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// oracleEncoder is the encoder as it was before it wrote through its own
// block: a bufio.Writer under every token and a sticky error check per
// write. FuzzEncodeRoundTrip holds the encoder to its bytes.
type oracleEncoder struct {
	w       *bufio.Writer
	indent  bool
	open    []frame
	pending bool
	rooted  bool
	buf     []byte
	err     error
}

func newOracleEncoder(w io.Writer, indent bool) *oracleEncoder {
	return &oracleEncoder{w: bufio.NewWriter(w), indent: indent}
}

func (e *oracleEncoder) Start(name string) {
	if depth := len(e.open); depth > 0 {
		e.content()
		e.open[depth-1].elems = true
		if e.indent {
			e.newline(depth)
		}
	} else if e.rooted {
		e.ch('\n')
	}
	e.rooted = true
	e.ch('<')
	e.str(name)
	e.open = append(e.open, frame{name: name})
	e.pending = true
}

func (e *oracleEncoder) Attr(name, value string) {
	e.ch(' ')
	e.str(name)
	e.str(`="`)
	e.escapeString(value, true)
	e.ch('"')
}

func (e *oracleEncoder) Text(s string) {
	if s != "" {
		e.content()
		e.escapeString(s, false)
	}
}

func (e *oracleEncoder) End() {
	depth := len(e.open) - 1
	f := e.open[depth]
	e.open = e.open[:depth]
	if e.pending {
		e.pending = false
		e.str("/>")
		return
	}
	if f.elems && e.indent {
		e.newline(depth)
	}
	e.str("</")
	e.str(f.name)
	e.ch('>')
}

func (e *oracleEncoder) Flush() error {
	if e.indent && e.rooted {
		e.ch('\n')
	}
	if err := e.w.Flush(); e.err == nil {
		e.err = err
	}
	return e.err
}

func (e *oracleEncoder) content() {
	if e.pending {
		e.pending = false
		e.ch('>')
	}
}

func (e *oracleEncoder) newline(depth int) {
	e.ch('\n')
	for i := 0; i < depth; i++ {
		e.str("  ")
	}
}

func (e *oracleEncoder) ch(c byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(c)
	}
}

func (e *oracleEncoder) str(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *oracleEncoder) escapeString(s string, inAttr bool) {
	if !strings.ContainsAny(s, `&<>"`) {
		e.str(s)
		return
	}
	e.buf = append(e.buf[:0], s...)
	e.escape(e.buf, inAttr)
}

func (e *oracleEncoder) escape(b []byte, inAttr bool) {
	start := 0
	for i, c := range b {
		if c > '>' {
			continue
		}
		var rep string
		switch c {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '"':
			if !inAttr {
				continue
			}
			rep = "&quot;"
		default:
			continue
		}
		e.bytes(b[start:i])
		e.str(rep)
		start = i + 1
	}
	e.bytes(b[start:])
}

func (e *oracleEncoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}
