package xmorph_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventoryMatchesTree holds DESIGN.md §2 to the tree: the
// backticked paths in the inventory's first column are exactly the
// directories that hold non-test Go files ("." for the root package),
// with benchmark/, a module of its own, as one row. A package added or
// deleted without its row fails here.
func TestDesignInventoryMatchesTree(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## 2. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 2")
	}
	section, _, _ = strings.Cut(section, "\n#") // the table ends at the first subsection
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			path, _, _ := strings.Cut(rest, "`")
			documented[strings.TrimSuffix(path, "/")] = true
		}
	}

	present := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case !d.IsDir():
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				present[filepath.ToSlash(filepath.Dir(path))] = true
			}
		case path == "benchmark":
			present[path] = true
			return filepath.SkipDir
		case path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range sortedKeys(present) {
		if !documented[p] {
			t.Errorf("%s holds Go code but has no DESIGN.md §2 row", p)
		}
	}
	for _, p := range sortedKeys(documented) {
		if !present[p] {
			t.Errorf("DESIGN.md §2 has a row for %s, which holds no Go code", p)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
