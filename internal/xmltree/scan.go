package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The byte scanner behind Scan. It reads its input through one buffer,
// boxes no tokens and builds nothing per tag: names are interned once
// per scan, and character data and an element's attribute values are
// decoded into one reused buffer, which the Handler borrows.
//
// What it accepts, and every event it produces, is what the encoding/xml
// token loop it replaced accepted and produced; the comments below name
// that package's behaviour where it is not the XML specification's.
// Names with non-ASCII bytes are checked by encoding/xml itself, so its
// letter tables are the only ones, and so is its check of an <?xml?>
// declaration.

// readSize is the read buffer's size; a name longer than the buffer
// grows it.
const readSize = 32 << 10

type scanner struct {
	r        io.Reader
	buf      []byte // buf[pos:end] is read but not yet scanned
	pos, end int
	mark     int   // start of a name being read, kept across refills; -1 when none
	off      int   // input bytes before buf[0]
	line     int   // newlines before buf[0], for error messages
	rerr     error // the reader's sticky error; io.EOF at the end of input

	// val holds the decoded character data of the current run, or the
	// attribute values of the current start tag, which attrs index.
	val   []byte
	attrs []attrAt
	names []qname
	index map[string]int32 // raw name → its entry in names
	open  []int32          // names of the open elements, innermost last
	ns    []binding        // namespace prefixes bound so far, innermost last

	one    bool // parse one element and stop after its end tag
	rooted bool
}

// qname is one distinct name of a scan.
type qname struct {
	raw, space, local string // local is raw without its namespace prefix
	xmlName           bool   // raw is an XML Name: a processing-instruction target
	qualified         bool   // an element or attribute name: an XML Name with at most one colon
	dotted            bool   // local contains TypeSep
}

type attrAt struct {
	name     int32
	from, to int // value in val
}

// binding is an xmlns:prefix declaration, kept to the end of the element
// at depth that made it. encoding/xml resolves an attribute's prefix
// through such bindings, and Scan drops any attribute whose prefix is
// bound to the URI "xmlns".
type binding struct {
	prefix string
	xmlns  bool
	depth  int
}

func newScanner(r io.Reader) *scanner {
	size := readSize
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		size = max(l.Len(), 64) // strings and byte slices: no bigger than the input
	}
	return &scanner{r: r, buf: make([]byte, size), mark: -1, index: map[string]int32{}}
}

// Byte classes for the character-data loop.
const (
	cLT    = 1 << iota // '<'
	cAmp               // '&'
	cCR                // '\r'
	cGT                // '>'
	cQuot              // '"'
	cApos              // '\''
	cWord              // ASCII other than whitespace: the run is not blank
	cCheck             // a control or non-ASCII byte: the run needs the full character check
)

// The bytes each kind of character data stops at.
const (
	inText  = cLT | cAmp | cCR | cGT
	inQuot  = cLT | cAmp | cCR | cQuot
	inApos  = cLT | cAmp | cCR | cApos
	inCDATA = cCR | cGT
)

var class = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = cCheck
		case c == ' ' || c == '\t' || c == '\n':
		case c == '\r':
			t[c] = cCR
		case c < ' ':
			t[c] = cCheck
		default:
			t[c] = cWord
		}
	}
	t['<'] |= cLT
	t['&'] |= cAmp
	t['>'] |= cGT
	t['"'] |= cQuot
	t['\''] |= cApos
	return t
}()

// nameByte marks the bytes encoding/xml reads as part of a name: the
// ASCII name characters and every non-ASCII byte.
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// document scans the input into h under Scan's rules; with one set it
// stops after the first element's end tag, and character data ahead of
// that element must be blank.
func (s *scanner) document(h Handler, one bool) error {
	s.one = one
	for !s.one || !s.rooted || len(s.open) > 0 {
		if s.pos == s.end {
			if err := s.fill(); err == io.EOF {
				break
			} else if err != nil {
				return readError(err)
			}
		}
		var err error
		if s.buf[s.pos] != '<' {
			err = s.chars(h, inText)
		} else {
			s.pos++
			var b byte
			if b, err = s.next(); err == nil {
				switch b {
				case '/':
					err = s.endTag(h)
				case '?':
					err = s.procInst()
				case '!':
					err = s.bang(h)
				default:
					s.pos--
					err = s.startTag(h)
				}
			}
		}
		if err != nil {
			return err
		}
		if err := h.Err(); err != nil {
			return err
		}
	}
	if !s.rooted {
		return fmt.Errorf("xmltree: scan: no root element")
	}
	if len(s.open) != 0 {
		return fmt.Errorf("xmltree: scan: unexpected end of input with %d open element(s)", len(s.open))
	}
	return nil
}

// startTag reads a start tag after its '<' and applies Scan's rules to
// it. Namespace declarations take effect for the whole tag, wherever in
// it they stand, as encoding/xml reads them before resolving any name.
func (s *scanner) startTag(h Handler) error {
	q, err := s.name("element name after <")
	if err != nil {
		return err
	}
	s.val, s.attrs = s.val[:0], s.attrs[:0]
	empty := false
	for {
		s.space()
		b, err := s.next()
		if err != nil {
			return err
		}
		if b == '/' {
			if err := s.expect('>', "expected /> in element"); err != nil {
				return err
			}
			empty = true
			break
		}
		if b == '>' {
			break
		}
		s.pos--
		a, err := s.name("attribute name in element")
		if err != nil {
			return err
		}
		s.space()
		if err := s.expect('=', "attribute name without = in element"); err != nil {
			return err
		}
		s.space()
		if b, err = s.next(); err != nil {
			return err
		}
		stop := uint8(inQuot)
		if b == '\'' {
			stop = inApos
		} else if b != '"' {
			return s.syntax("unquoted or missing attribute value in element")
		}
		from := len(s.val)
		if _, err := s.decode(stop); err != nil {
			return err
		}
		s.attrs = append(s.attrs, attrAt{a, from, len(s.val)})
	}

	el := &s.names[q]
	if len(s.open) == 0 && s.rooted {
		return fmt.Errorf("xmltree: scan: multiple root elements")
	}
	depth := len(s.open) + 1
	if depth > MaxDepth {
		return fmt.Errorf("xmltree: scan: <%s> is nested deeper than %d levels", el.local, MaxDepth)
	}
	if el.dotted {
		return checkName(el.local)
	}
	s.rooted = true
	for _, a := range s.attrs {
		if an := &s.names[a.name]; an.space == "xmlns" {
			s.ns = append(s.ns, binding{an.local, string(s.val[a.from:a.to]) == "xmlns", depth})
		}
	}
	s.open = append(s.open, q)
	h.Start(el.local)
	for _, a := range s.attrs {
		an := &s.names[a.name]
		if s.xmlnsAttr(an) {
			continue
		}
		if depth == MaxDepth {
			return fmt.Errorf("xmltree: scan: attribute %s of <%s> lies deeper than %d levels", an.local, el.local, MaxDepth)
		}
		if an.dotted {
			return checkName(an.local)
		}
		h.Attr(an.local, s.val[a.from:a.to])
	}
	if empty {
		s.close(h)
	}
	return nil
}

// xmlnsAttr reports whether Scan drops an attribute as a namespace
// declaration: a name with the local part or the prefix xmlns, or —
// since encoding/xml resolves prefixes before Scan looked — with a
// prefix bound to the URI "xmlns". The prefix xml is never resolved.
func (s *scanner) xmlnsAttr(a *qname) bool {
	switch {
	case a.local == "xmlns" || a.space == "xmlns":
		return true
	case a.space == "" || a.space == "xml":
		return false
	}
	for i := len(s.ns) - 1; i >= 0; i-- {
		if s.ns[i].prefix == a.space {
			return s.ns[i].xmlns
		}
	}
	return false
}

// endTag reads an end tag after its "</". It must repeat the open
// element's name exactly, prefix included.
func (s *scanner) endTag(h Handler) error {
	raw, err := s.rawName()
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return s.syntax("expected element name after </")
	}
	var open string
	if len(s.open) > 0 {
		open = s.names[s.open[len(s.open)-1]].raw
	}
	name, match := open, string(raw) == open
	if !match {
		name = string(raw) // before the buffer moves on
	}
	s.space()
	b, err := s.next()
	if err != nil {
		return err
	}
	switch {
	case b != '>':
		return s.syntax("invalid characters between </" + name + " and >")
	case len(s.open) == 0:
		return s.syntax("unexpected end element </" + name + ">")
	case !match:
		return s.syntax("element <" + open + "> closed by </" + name + ">")
	}
	s.close(h)
	return nil
}

// close ends the innermost open element and the namespace bindings it
// made.
func (s *scanner) close(h Handler) {
	depth := len(s.open)
	for len(s.ns) > 0 && s.ns[len(s.ns)-1].depth == depth {
		s.ns = s.ns[:len(s.ns)-1]
	}
	s.open = s.open[:depth-1]
	h.End()
}

// procInst skips a processing instruction after its "<?". Its target
// must be a name; an <?xml?> declaration must declare version 1.0, if
// any, and UTF-8, if any encoding.
func (s *scanner) procInst() error {
	raw, err := s.rawName()
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return s.syntax("expected target name after <?")
	}
	target := &s.names[s.intern(raw)]
	if !target.xmlName {
		return s.syntax("invalid XML name: " + target.raw)
	}
	decl := target.raw == "xml"
	s.space()
	s.val = s.val[:0]
	var b0 byte
	for {
		b, err := s.next()
		if err != nil {
			return err
		}
		if decl {
			s.val = append(s.val, b)
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if decl {
		if err := stdlibAccepts("<?xml " + string(s.val[:len(s.val)-2]) + "?>"); err != nil {
			return fmt.Errorf("xmltree: scan: %w", err)
		}
	}
	return nil
}

// bang reads what follows a "<!": a comment, a CDATA section or a
// directive.
func (s *scanner) bang(h Handler) error {
	b, err := s.next()
	if err != nil {
		return err
	}
	switch b {
	case '-':
		return s.comment()
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if err := s.expect("CDATA["[i], "invalid <![ sequence"); err != nil {
				return err
			}
		}
		return s.chars(h, inCDATA)
	}
	return s.directive()
}

// comment skips a comment after its "<!-". A "--" in it must end it.
func (s *scanner) comment() error {
	if err := s.expect('-', "invalid sequence <!- not part of <!--"); err != nil {
		return err
	}
	var b0, b1 byte
	for {
		b, err := s.next()
		if err != nil {
			return err
		}
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				return s.syntax(`invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, b
	}
}

// directive skips a directive such as <!DOCTYPE …> after its first
// byte, the way encoding/xml does: to the first '>' outside quotes and
// outside nested <…>, with embedded comments skipped whole.
func (s *scanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.next()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = s.next(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = s.next(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// chars reads one run of character data — content up to the next '<',
// or a CDATA section after its "<![CDATA[" — and passes it to h if it
// lies inside the root element and is not blank.
func (s *scanner) chars(h Handler, stop uint8) error {
	s.val = s.val[:0]
	blank, err := s.decode(stop)
	switch {
	case err != nil:
		return err
	case blank:
	case len(s.open) > 0:
		h.Text(s.val)
	case s.one && !s.rooted:
		return s.syntax("text before the root element")
	}
	return nil
}

// decode appends one run of character data to val, with references
// decoded and "\r\n" and "\r" read as "\n": content stops ahead of the
// next '<' or at the end of input, an attribute value after its closing
// quote, a CDATA section after its "]]>". The run must be UTF-8 in the
// XML character range. It is blank if it is whitespace only, by the
// unicode.IsSpace rule bytes.TrimSpace applies.
func (s *scanner) decode(stop uint8) (blank bool, err error) {
	from := len(s.val)
	var seen uint8
	var b0, b1 byte // the last two input bytes since the last reference, for "]]>"
scan:
	for {
		run := s.buf[s.pos:s.end]
		i := 0
		for i < len(run) && class[run[i]]&stop == 0 {
			seen |= class[run[i]]
			i++
		}
		if i > 0 {
			s.val = append(s.val, run[:i]...)
			if i >= 2 {
				b0, b1 = run[i-2], run[i-1]
			} else {
				b0, b1 = b1, run[0]
			}
			s.pos += i
		}
		if i == len(run) {
			if err := s.fill(); err != nil {
				switch {
				case err == io.EOF && stop == inText:
					break scan
				case err == io.EOF && stop == inCDATA:
					return false, s.syntax("unexpected EOF in CDATA section")
				}
				return false, s.unexpected(err)
			}
			continue
		}
		s.pos++
		switch run[i] {
		case '<':
			if stop == inText {
				s.pos--
				break scan
			}
			return false, s.syntax("unescaped < inside quoted string")
		case '"', '\'':
			break scan
		case '&':
			at := len(s.val)
			if err := s.reference(); err != nil {
				return false, err
			}
			for _, c := range s.val[at:] {
				seen |= class[c]
			}
			b0, b1 = 0, 0
		case '\r':
			s.val = append(s.val, '\n')
			b0, b1 = b1, '\r'
			if (s.pos < s.end || s.fill() == nil) && s.buf[s.pos] == '\n' {
				s.pos++
				b0, b1 = '\r', '\n'
			}
		case '>':
			if b0 == ']' && b1 == ']' {
				if stop == inCDATA {
					s.val = s.val[:len(s.val)-2]
					seen = 0 // the "]]" marked the run as not blank
					for _, c := range s.val[from:] {
						seen |= class[c]
					}
					break scan
				}
				return false, s.syntax("unescaped ]]> not in CDATA section")
			}
			s.val = append(s.val, '>')
			seen |= cWord
			b0, b1 = b1, '>'
		}
	}
	if seen&cCheck == 0 {
		return seen&cWord == 0, nil
	}
	v := s.val[from:]
	for i := 0; i < len(v); {
		r, size := rune(v[i]), 1
		if r >= utf8.RuneSelf {
			if r, size = utf8.DecodeRune(v[i:]); r == utf8.RuneError && size == 1 {
				return false, s.syntax("invalid UTF-8")
			}
		}
		if !(r == '\t' || r == '\n' || r == '\r' || ' ' <= r && r <= 0xD7FF ||
			0xE000 <= r && r <= 0xFFFD || 0x10000 <= r && r <= unicode.MaxRune) {
			return false, s.syntax(fmt.Sprintf("illegal character code %U", r))
		}
		i += size
	}
	return seen&cWord == 0 && len(bytes.TrimSpace(v)) == 0, nil
}

// reference decodes a reference after its '&' into val: one of the five
// predefined entities, or a decimal or hexadecimal (lower-case x)
// character reference, where a surrogate reads as U+FFFD.
func (s *scanner) reference() error {
	b, err := s.next()
	if err != nil {
		return err
	}
	if b != '#' {
		var name [len("quot")]byte
		n := 0
		for ; b != ';'; n++ {
			if n == len(name) {
				return s.syntax("invalid character entity")
			}
			name[n] = b
			if b, err = s.next(); err != nil {
				return err
			}
		}
		switch string(name[:n]) {
		case "lt":
			s.val = append(s.val, '<')
		case "gt":
			s.val = append(s.val, '>')
		case "amp":
			s.val = append(s.val, '&')
		case "apos":
			s.val = append(s.val, '\'')
		case "quot":
			s.val = append(s.val, '"')
		default:
			return s.syntax("invalid character entity &" + string(name[:n]) + ";")
		}
		return nil
	}
	if b, err = s.next(); err != nil {
		return err
	}
	base := uint32(10)
	if b == 'x' {
		base = 16
		if b, err = s.next(); err != nil {
			return err
		}
	}
	var r uint32
	digits := 0
	for {
		var d uint32
		switch {
		case '0' <= b && b <= '9':
			d = uint32(b - '0')
		case base == 16 && 'a' <= b && b <= 'f':
			d = uint32(b-'a') + 10
		case base == 16 && 'A' <= b && b <= 'F':
			d = uint32(b-'A') + 10
		default:
			if b != ';' || digits == 0 || r > unicode.MaxRune {
				return s.syntax("invalid character reference")
			}
			s.val = utf8.AppendRune(s.val, rune(r))
			return nil
		}
		if r <= unicode.MaxRune { // past it, r stays past it and cannot overflow
			r = r*base + d
		}
		digits++
		if b, err = s.next(); err != nil {
			return err
		}
	}
}

// name reads an element or attribute name and returns its entry.
func (s *scanner) name(what string) (int32, error) {
	raw, err := s.rawName()
	if err != nil {
		return 0, err
	}
	if len(raw) == 0 {
		return 0, s.syntax("expected " + what)
	}
	q := s.intern(raw)
	if !s.names[q].qualified {
		return 0, s.syntax("invalid XML name: " + s.names[q].raw)
	}
	return q, nil
}

// rawName reads the bytes encoding/xml takes for a name. The result
// views the read buffer until the next read; it is empty when the next
// byte cannot be part of a name.
func (s *scanner) rawName() ([]byte, error) {
	s.mark = s.pos
	for {
		for s.pos < s.end && nameByte[s.buf[s.pos]] {
			s.pos++
		}
		if s.pos < s.end {
			raw := s.buf[s.mark:s.pos]
			s.mark = -1
			return raw, nil
		}
		if err := s.fill(); err != nil {
			s.mark = -1
			return nil, s.unexpected(err)
		}
	}
}

// intern returns the entry of a raw name, entering it on first sight.
func (s *scanner) intern(raw []byte) int32 {
	if q, ok := s.index[string(raw)]; ok {
		return q
	}
	q := qname{raw: string(raw)}
	q.xmlName = isName(q.raw)
	colons := strings.Count(q.raw, ":")
	q.qualified = q.xmlName && colons <= 1
	q.local = q.raw
	if space, local, _ := strings.Cut(q.raw, ":"); colons == 1 && space != "" && local != "" {
		q.space, q.local = space, local
	}
	q.dotted = strings.Contains(q.local, TypeSep)
	s.names = append(s.names, q)
	s.index[q.raw] = int32(len(s.names) - 1)
	return int32(len(s.names) - 1)
}

// isName reports whether raw, a run of name bytes, is an XML Name. An
// ASCII one is unless it starts with a digit, '-' or '.'; for one with
// non-ASCII bytes encoding/xml answers, reading it as the target of a
// processing instruction.
func isName(raw string) bool {
	for i := 0; i < len(raw); i++ {
		if raw[i] >= utf8.RuneSelf {
			return stdlibAccepts("<?"+raw+"?>") == nil
		}
	}
	c := raw[0]
	return !('0' <= c && c <= '9' || c == '-' || c == '.')
}

// stdlibAccepts reads the first token of src with encoding/xml.
func stdlibAccepts(src string) error {
	_, err := xml.NewDecoder(strings.NewReader(src)).RawToken()
	return err
}

// space skips whitespace.
func (s *scanner) space() {
	for {
		for ; s.pos < s.end; s.pos++ {
			if c := s.buf[s.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return
			}
		}
		if s.fill() != nil {
			return
		}
	}
}

// next returns the next byte; the input must have one.
func (s *scanner) next() (byte, error) {
	if s.pos == s.end {
		if err := s.fill(); err != nil {
			return 0, s.unexpected(err)
		}
	}
	b := s.buf[s.pos]
	s.pos++
	return b, nil
}

// expect reads the next byte, which must be want.
func (s *scanner) expect(want byte, msg string) error {
	b, err := s.next()
	if err == nil && b != want {
		err = s.syntax(msg)
	}
	return err
}

// fill reads more input, keeping the unscanned bytes and a name being
// read. It returns nil once there is a byte to scan, else the reader's
// error, io.EOF at the end of input.
func (s *scanner) fill() error {
	if s.rerr != nil {
		return s.rerr
	}
	keep := s.pos
	if s.mark >= 0 {
		keep = s.mark
		s.mark = 0
	}
	s.line += bytes.Count(s.buf[:keep], []byte{'\n'})
	s.off += keep
	s.end = copy(s.buf, s.buf[keep:s.end])
	s.pos -= keep
	if s.end == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for range 100 {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		s.rerr = err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	s.rerr = io.ErrNoProgress
	return s.rerr
}

// unexpected is the error for input that ends, or fails to read, where
// more is needed.
func (s *scanner) unexpected(err error) error {
	if err == io.EOF {
		return s.syntax("unexpected EOF")
	}
	return readError(err)
}

func readError(err error) error { return fmt.Errorf("xmltree: scan: %w", err) }

func (s *scanner) syntax(msg string) error {
	line := s.line + bytes.Count(s.buf[:s.pos], []byte{'\n'}) + 1
	return fmt.Errorf("xmltree: scan: XML syntax error on line %d: %s", line, msg)
}
