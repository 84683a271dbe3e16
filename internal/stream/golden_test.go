package stream

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xmorph/internal/guard"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

var update = flag.Bool("update", false, "rewrite golden outputs from the tree renderer")

// goldenCase is one testdata file: a guard at the streamable/store-backed
// boundary, its input document, the expected plan verdict, and the exact
// output bytes (regenerated from Render with -update — the tree renderer
// is the oracle).
type goldenCase struct {
	name    string
	verdict string // "streamable" or "store-backed"
	guard   string
	input   string
	output  string
}

func parseGolden(t *testing.T, path string) *goldenCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gc := &goldenCase{name: strings.TrimSuffix(filepath.Base(path), ".txt")}
	sections := map[string]string{}
	var cur string
	var buf strings.Builder
	flush := func() {
		if cur != "" {
			sections[cur] = strings.TrimSuffix(buf.String(), "\n")
		}
		buf.Reset()
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		trimmed := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(trimmed, "-- ") && strings.HasSuffix(trimmed, " --") {
			flush()
			cur = strings.TrimSuffix(strings.TrimPrefix(trimmed, "-- "), " --")
			continue
		}
		buf.WriteString(line)
	}
	flush()
	for _, k := range []string{"verdict", "guard", "input"} {
		if sections[k] == "" {
			t.Fatalf("%s: missing section %q", path, k)
		}
	}
	gc.verdict = strings.TrimSpace(sections["verdict"])
	gc.guard = strings.TrimSpace(sections["guard"])
	gc.input = sections["input"]
	gc.output = sections["output"]
	return gc
}

func writeGolden(t *testing.T, path string, gc *goldenCase) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "-- verdict --\n%s\n-- guard --\n%s\n-- input --\n%s\n-- output --\n%s\n",
		gc.verdict, gc.guard, gc.input, gc.output)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCorpus runs every testdata case through the planner, the tree
// renderer, the join-backed streamer, and (when streamable) the one-pass
// executor over both the in-memory and the shredded-store source — all
// must produce the committed bytes.
func TestGoldenCorpus(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden cases in testdata/")
	}
	sort.Strings(paths)
	for _, path := range paths {
		gc := parseGolden(t, path)
		t.Run(gc.name, func(t *testing.T) {
			doc := xmltree.MustParse(gc.input)
			p, err := semantics.Compile(guard.MustParse(gc.guard), shape.FromDocument(doc))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tgt := p.ComposedTarget()

			d := plan.Classify(tgt)
			gotVerdict := "store-backed"
			if d.Streamable {
				gotVerdict = "streamable"
			}
			if gotVerdict != gc.verdict {
				t.Fatalf("verdict = %s (%s), want %s", gotVerdict, d.Reason, gc.verdict)
			}

			tree, err := render.Render(doc, tgt, nil)
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			want := tree.XML(false)
			if *update {
				gc.output = want
				writeGolden(t, path, gc)
			}
			if want != gc.output {
				t.Errorf("tree render differs from golden (run -update?):\ngot:  %q\nwant: %q", want, gc.output)
			}

			var sb strings.Builder
			if _, err := render.Stream(doc, tgt, &sb, nil); err != nil {
				t.Fatalf("render.Stream: %v", err)
			}
			if sb.String() != gc.output {
				t.Errorf("render.Stream differs:\ngot:  %q\nwant: %q", sb.String(), gc.output)
			}

			if !d.Streamable {
				var b strings.Builder
				if _, err := Execute(FromNodes(doc), tgt, &b, nil); !errors.Is(err, ErrNotStreamable) {
					t.Errorf("Execute on store-backed target: err = %v, want ErrNotStreamable", err)
				}
				return
			}

			// One-pass executor over the in-memory sequence source.
			var b strings.Builder
			n, err := Execute(FromNodes(doc), tgt, &b, nil)
			if err != nil {
				t.Fatalf("Execute(memory): %v", err)
			}
			if b.String() != gc.output {
				t.Errorf("Execute(memory) differs:\ngot:  %q\nwant: %q", b.String(), gc.output)
			}
			if n != tree.Size() {
				t.Errorf("Execute count = %d, tree size = %d", n, tree.Size())
			}

			// And over the shredded store, straight from kvstore scans.
			s := store.OpenMemory()
			defer s.Close()
			if _, err := s.Shred(gc.name, strings.NewReader(gc.input), nil); err != nil {
				t.Fatalf("shred: %v", err)
			}
			v := s.View()
			defer v.Close()
			sd, err := v.Doc(gc.name)
			if err != nil {
				t.Fatal(err)
			}
			b.Reset()
			if _, err := Execute(FromDoc(sd), tgt, &b, nil); err != nil {
				t.Fatalf("Execute(store): %v", err)
			}
			if b.String() != gc.output {
				t.Errorf("Execute(store) differs:\ngot:  %q\nwant: %q", b.String(), gc.output)
			}
		})
	}
}
