package guard

import (
	"strings"
	"testing"
)

// TestFig9Translation reproduces Figure 9: the example query translates to
// a morph over nested closest operators with type leaves.
func TestFig9Translation(t *testing.T) {
	s := MustParse("MORPH author [name publisher [name book [title price]]]").Algebra()
	for _, want := range []string{"closest", "type(author)", "type(name)", "type(publisher)", "type(book)", "type(title)", "type(price)"} {
		if !strings.Contains(s, want) {
			t.Errorf("algebra missing %s:\n%s", want, s)
		}
	}
	if strings.Count(s, "closest") != 6 {
		t.Errorf("expected 6 closest operators (one per bracketed child):\n%s", s)
	}
	if !strings.HasPrefix(s, "morph\n") {
		t.Errorf("root is not morph:\n%s", s)
	}
}

func TestComposeChain(t *testing.T) {
	s := MustParse("MORPH a | MUTATE b | TRANSLATE a -> c").Algebra()
	// Compose chains lean left: the root's left arm is the compose of the
	// first two stages, its right arm the TRANSLATE with its dictionary.
	want := "compose\n  compose\n    morph\n      type(a)\n    mutate\n      type(b)\n  translate(a -> c)\n"
	if s != want {
		t.Errorf("compose chain:\n%s\nwant:\n%s", s, want)
	}
}

func TestWrapperOperators(t *testing.T) {
	s := MustParse("MUTATE (NEW scribe) [ author ] (DROP title) x [ CLONE y (RESTRICT z [ w ]) ]").Algebra()
	for _, want := range []string{"new(scribe)", "drop", "clone", "restrict"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %s:\n%s", want, s)
		}
	}
}
