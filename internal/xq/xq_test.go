package xq

import (
	"errors"
	"strings"
	"testing"

	"xmorph/internal/xmltree"
)

const library = `<lib>
  <book year="2001"><title>Alpha</title><author>Ann</author><price>30</price></book>
  <book year="1999"><title>Beta</title><author>Bob</author><price>10</price></book>
  <book year="2005"><title>Gamma</title><author>Ann</author><price>20</price></book>
</lib>`

func engine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.Bind("lib.xml", xmltree.MustParse(library))
	return e
}

func q(t *testing.T, query string) string {
	t.Helper()
	out, err := engine(t).QueryXML(query)
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	return out
}

func TestPathExpression(t *testing.T) {
	got := q(t, `doc("lib.xml")/book/title`)
	want := "<title>Alpha</title><title>Beta</title><title>Gamma</title>"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestDescendantAxis(t *testing.T) {
	got := q(t, `doc("lib.xml")//author`)
	if strings.Count(got, "<author>") != 3 {
		t.Errorf("descendant axis: %s", got)
	}
}

func TestAttributeStep(t *testing.T) {
	got := q(t, `doc("lib.xml")/book/@year`)
	if got != `year="2001"year="1999"year="2005"` {
		t.Errorf("attributes: %s", got)
	}
}

func TestWildcardStep(t *testing.T) {
	got := q(t, `doc("lib.xml")/book[1]/*`)
	if !strings.Contains(got, "<title>Alpha</title>") || !strings.Contains(got, "<price>30</price>") {
		t.Errorf("wildcard: %s", got)
	}
}

func TestPositionalPredicate(t *testing.T) {
	got := q(t, `doc("lib.xml")/book[2]/title`)
	if got != "<title>Beta</title>" {
		t.Errorf("positional: %s", got)
	}
}

func TestValuePredicate(t *testing.T) {
	got := q(t, `doc("lib.xml")/book[author = "Ann"]/title`)
	if got != "<title>Alpha</title><title>Gamma</title>" {
		t.Errorf("value predicate: %s", got)
	}
}

func TestNumericComparisonPredicate(t *testing.T) {
	got := q(t, `doc("lib.xml")/book[price < 25]/title`)
	if got != "<title>Beta</title><title>Gamma</title>" {
		t.Errorf("numeric predicate: %s", got)
	}
}

// TestPaperDumpQuery is the exact query shape the paper runs against eXist
// for Figure 10.
func TestPaperDumpQuery(t *testing.T) {
	got := q(t, `for $b in doc("lib.xml")/book return <data>{$b}</data>`)
	if strings.Count(got, "<data><book") != 3 {
		t.Errorf("dump query: %s", got)
	}
	if !strings.Contains(got, "<data><book year=\"2001\"><title>Alpha</title>") {
		t.Errorf("subtree not copied: %s", got)
	}
}

func TestFLWORWhereOrder(t *testing.T) {
	got := q(t, `for $b in doc("lib.xml")/book
	  where $b/price > 15
	  order by $b/title descending
	  return $b/title`)
	if got != "<title>Gamma</title><title>Alpha</title>" {
		t.Errorf("flwor: %s", got)
	}
}

func TestOrderByNumeric(t *testing.T) {
	got := q(t, `for $b in doc("lib.xml")/book order by number($b/price) return $b/price`)
	if got != "<price>10</price><price>20</price><price>30</price>" {
		t.Errorf("numeric order: %s", got)
	}
}

// TestNumericComparisonEdges: a numeric comparison with a NaN operand
// satisfies only "!=", even against NaN; infinities, negative zero and
// padded numbers compare as the numbers they parse as.
func TestNumericComparisonEdges(t *testing.T) {
	tests := []struct{ q, want string }{
		{`"NaN" = 5`, "false"},
		{`"NaN" != 5`, "true"},
		{`"NaN" < 5`, "false"},
		{`"NaN" >= 5`, "false"},
		{`"NaN" = "NaN"`, "false"},
		{`"NaN" != "NaN"`, "true"},
		{`0 div 0 = 0 div 0`, "false"},
		{`0 div 0 != 1`, "true"},
		{`0 div 0 <= 1`, "false"},
		{`("NaN", 5) = 5`, "true"},
		{`"INF" > "1e308"`, "true"},
		{`"+Inf" = 1 div 0`, "true"},
		{`"-Infinity" < "-1e308"`, "true"},
		{`"-INF" >= "-inf"`, "true"},
		{`"-0" = 0`, "true"},
		{`"-0" < 0`, "false"},
		{`" 5 " = 5`, "true"},
		{`" 5 " != "5"`, "false"},
		{`"abc" != 5`, "true"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

// TestOrderByNaN: NaN keys sort together, ahead of every number, in a
// stable sort either way round.
func TestOrderByNaN(t *testing.T) {
	tests := []struct{ q, want string }{
		{`for $x in ("3", "NaN", "-INF", "nan", "1", "INF") order by $x return $x`, "NaN nan -INF 1 3 INF"},
		{`for $x in ("3", "NaN", "-INF", "nan", "1", "INF") order by $x descending return $x`, "INF 3 1 -INF NaN nan"},
		{`for $x in (2, 0 div 0, 1, 0 div 0) order by $x return $x`, "NaN NaN 1 2"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

func TestLetClause(t *testing.T) {
	got := q(t, `let $books := doc("lib.xml")/book return count($books)`)
	if got != "3" {
		t.Errorf("let/count: %s", got)
	}
}

func TestNestedFor(t *testing.T) {
	got := q(t, `for $b in doc("lib.xml")/book, $t in $b/title return string($t)`)
	if got != "Alpha Beta Gamma" {
		t.Errorf("nested for: %s", got)
	}
}

func TestDistinctValues(t *testing.T) {
	got := q(t, `distinct-values(doc("lib.xml")//author)`)
	if got != "Ann Bob" {
		t.Errorf("distinct-values: %s", got)
	}
}

func TestConstructorWithAttributesAndText(t *testing.T) {
	got := q(t, `for $b in doc("lib.xml")/book[1] return <entry kind="book">title: {$b/title/text()}</entry>`)
	if got != `<entry kind="book">title: Alpha</entry>` {
		t.Errorf("constructor: %s", got)
	}
}

func TestNestedConstructors(t *testing.T) {
	got := q(t, `<out><n>{count(doc("lib.xml")/book)}</n></out>`)
	if got != "<out><n>3</n></out>" {
		t.Errorf("nested constructors: %s", got)
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	tests := []struct{ q, want string }{
		{`1 + 2 * 3`, "7"},
		{`(1 + 2) * 3`, "9"},
		{`10 div 4`, "2.5"},
		{`7 mod 3`, "1"},
		{`-5 + 2`, "-3"},
		{`concat("a", "b", "c")`, "abc"},
		{`not(exists(doc("lib.xml")/nothing))`, "true"},
		{`string(doc("lib.xml")/book[1]/price)`, "30"},
		{`count(doc("lib.xml")//title)`, "3"},
		{`1 = 1 and 2 = 3`, "false"},
		{`1 = 1 or 2 = 3`, "true"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

func TestCommaSequences(t *testing.T) {
	got := q(t, `1, "two", 3`)
	if got != "1 two 3" {
		t.Errorf("sequence: %s", got)
	}
	if got := q(t, `()`); got != "" {
		t.Errorf("empty sequence: %q", got)
	}
}

func TestComments(t *testing.T) {
	got := q(t, `(: pick titles :) doc("lib.xml")/book[1]/title`)
	if got != "<title>Alpha</title>" {
		t.Errorf("comments: %s", got)
	}
}

func TestErrors(t *testing.T) {
	e := engine(t)
	bad := []string{
		``,
		`for $x return 1`,
		`doc("missing.xml")/a`,
		`$undefined`,
		`unknownfn(1)`,
		`<a>{1}</b>`,
		`<t><4`,
		`"unterminated`,
		`for $b in doc("lib.xml")/book`,
		`1 +`,
	}
	for _, src := range bad {
		if _, err := e.Query(src); err == nil {
			t.Errorf("query %q succeeded, want error", src)
		}
	}
}

func TestWhereOnAttributes(t *testing.T) {
	got := q(t, `for $b in doc("lib.xml")/book where $b/@year >= 2001 return string($b/title)`)
	if got != "Alpha Gamma" {
		t.Errorf("attr where: %s", got)
	}
}

func TestIfThenElse(t *testing.T) {
	tests := []struct{ q, want string }{
		{`if (1 = 1) then "yes" else "no"`, "yes"},
		{`if (1 = 2) then "yes" else "no"`, "no"},
		{`for $b in doc("lib.xml")/book return if ($b/price > 15) then "pricey" else "cheap"`, "pricey cheap pricey"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

func TestQuantified(t *testing.T) {
	tests := []struct{ q, want string }{
		{`some $b in doc("lib.xml")/book satisfies $b/price > 25`, "true"},
		{`some $b in doc("lib.xml")/book satisfies $b/price > 100`, "false"},
		{`every $b in doc("lib.xml")/book satisfies $b/price > 5`, "true"},
		{`every $b in doc("lib.xml")/book satisfies $b/price > 15`, "false"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

func TestUnionOperator(t *testing.T) {
	got := q(t, `doc("lib.xml")/book[1]/title | doc("lib.xml")/book[1]/author`)
	if got != "<title>Alpha</title><author>Ann</author>" {
		t.Errorf("union: %s", got)
	}
	// Duplicates collapse.
	got = q(t, `count(doc("lib.xml")/book | doc("lib.xml")/book)`)
	if got != "3" {
		t.Errorf("union dedupe: %s", got)
	}
}

func TestParentAxis(t *testing.T) {
	got := q(t, `count(doc("lib.xml")//author/../title)`)
	if got != "3" {
		t.Errorf("parent axis: %s", got)
	}
	got = q(t, `name(doc("lib.xml")/book[1]/title/..)`)
	if got != "book" {
		t.Errorf("parent name: %s", got)
	}
}

func TestAggregates(t *testing.T) {
	tests := []struct{ q, want string }{
		{`sum(doc("lib.xml")/book/price)`, "60"},
		{`avg(doc("lib.xml")/book/price)`, "20"},
		{`min(doc("lib.xml")/book/price)`, "10"},
		{`max(doc("lib.xml")/book/price)`, "30"},
		{`floor(2.7)`, "2"},
		{`ceiling(2.2)`, "3"},
		{`round(2.5)`, "3"},
		{`abs(-4)`, "4"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	tests := []struct{ q, want string }{
		{`contains("abcdef", "cde")`, "true"},
		{`starts-with("abcdef", "abc")`, "true"},
		{`ends-with("abcdef", "def")`, "true"},
		{`string-length("hello")`, "5"},
		{`normalize-space("  a   b  ")`, "a b"},
		{`upper-case("abc")`, "ABC"},
		{`lower-case("ABC")`, "abc"},
		{`substring("hello world", 7)`, "world"},
		{`substring("hello world", 1, 5)`, "hello"},
		{`empty(())`, "true"},
		{`empty((1))`, "false"},
		{`true()`, "true"},
		{`false()`, "false"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

func TestExtendedErrors(t *testing.T) {
	e := engine(t)
	for _, src := range []string{
		`contains("a")`,
		`sum(doc("lib.xml")/book/title)`,
		`if (1=1) then 2`,
		`some $x in (1,2) satisfie 1`,
		`last()`,
	} {
		if _, err := e.Query(src); err == nil {
			t.Errorf("query %q succeeded, want error", src)
		}
	}
}

// TestFunctionArity calls every library function with one argument too
// few and one too many: each must answer an *Error, never index a
// missing argument.
func TestFunctionArity(t *testing.T) {
	e := engine(t)
	call := func(name string, n int) string {
		args := make([]string, n)
		for i := range args {
			args[i] = "1"
		}
		return name + "(" + strings.Join(args, ", ") + ")"
	}
	for name, f := range functions {
		var srcs []string
		if f.min > 0 {
			srcs = append(srcs, call(name, f.min-1))
		}
		if f.max != variadic {
			srcs = append(srcs, call(name, f.max+1))
		}
		for _, src := range srcs {
			_, err := e.Query(src)
			var xerr *Error
			if !errors.As(err, &xerr) {
				t.Errorf("query %q: err = %v, want *Error", src, err)
			}
		}
	}
}

func TestQueryWithConditionalAggregation(t *testing.T) {
	got := q(t, `for $b in doc("lib.xml")/book
	  where some $a in $b/author satisfies contains($a, "Ann")
	  return string($b/title)`)
	if got != "Alpha Gamma" {
		t.Errorf("combined query: %s", got)
	}
}

func TestComparisonOperators(t *testing.T) {
	tests := []struct{ q, want string }{
		{`1 < 2`, "true"},
		{`2 <= 2`, "true"},
		{`3 > 4`, "false"},
		{`4 >= 4`, "true"},
		{`"a" != "b"`, "true"},
		{`"a" = "a"`, "true"},
		{`"2" = 2`, "true"},   // numeric comparison when both parse
		{`"x" < "y"`, "true"}, // string comparison otherwise
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
}

func TestEffectiveBooleanValues(t *testing.T) {
	tests := []struct{ q, want string }{
		{`not(())`, "true"},
		{`not(0)`, "true"},
		{`not("")`, "true"},
		{`not("x")`, "false"},
		{`not(doc("lib.xml")/book)`, "false"}, // node sequence is true
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
	// Multi-item atomic sequence has no effective boolean value.
	if _, err := engine(t).Query(`not((1, 2))`); err == nil {
		t.Error("EBV of multi-item atomics should error")
	}
}

func TestNumberCoercions(t *testing.T) {
	tests := []struct{ q, want string }{
		{`number(" 42 ")`, "42"},
		{`number(doc("lib.xml")/book[1]/price) + 1`, "31"},
		{`1 + number("2.5")`, "3.5"},
	}
	for _, tt := range tests {
		if got := q(t, tt.q); got != tt.want {
			t.Errorf("%s = %s, want %s", tt.q, got, tt.want)
		}
	}
	if _, err := engine(t).Query(`number("abc") + 1`); err == nil {
		t.Error("non-numeric coercion should error")
	}
}

func TestSerializeMixedSequence(t *testing.T) {
	got := q(t, `doc("lib.xml")/book[1]/title, "and", 42`)
	if got != "<title>Alpha</title> and 42" {
		t.Errorf("mixed serialization: %q", got)
	}
}
