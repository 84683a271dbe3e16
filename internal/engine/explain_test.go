package engine

import (
	"os"
	"strings"
	"testing"
)

// TestExplainGolden pins Explain's Figure 9 operator trees byte for byte.
// testdata/explain.golden holds one case per "== <guard>" header line,
// followed by the tree Explain prints for that guard. The cases cover the
// Fig. 9 guard, "|" and COMPOSE chains with TRANSLATE, the DROP, CLONE,
// RESTRICT and NEW wrappers, "*" and "**", and TYPE-FILL/CAST prefixes.
func TestExplainGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/explain.golden")
	if err != nil {
		t.Fatal(err)
	}
	cases := strings.Split(string(raw), "== ")[1:]
	if len(cases) < 10 {
		t.Fatalf("golden holds %d cases, want 10", len(cases))
	}
	for _, c := range cases {
		guardSrc, want, _ := strings.Cut(c, "\n")
		got, err := Explain(guardSrc)
		if err != nil {
			t.Errorf("%s: %v", guardSrc, err)
			continue
		}
		if got != want {
			t.Errorf("%s: explain tree diverges from the golden:\n%s\nwant:\n%s", guardSrc, got, want)
		}
	}
}
