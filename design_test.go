package xmorph_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDesignInventoryMatchesTree holds DESIGN.md §2 to the tree: the
// backticked paths in the inventory's first column are exactly the
// directories that hold non-test Go files ("." for the root package),
// with benchmark/, a module of its own, as one row. A package added or
// deleted without its row fails here.
//
// A row's "Imports …" and "imported by …" clauses (each up to the next
// ';', ':' or sentence end) are held to the main module's non-test
// import graph: every backticked name in one must be a package of the
// module (`render` for internal/render, or a full path such as
// `cmd/xmorph`) joined to the row's package by an import edge in that
// direction. Free text ("four examples", "the layers below") is not
// checked.
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
	// documented maps each row's path to its contents.
	documented := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			path, contents, _ := strings.Cut(rest, "`")
			documented[strings.TrimSuffix(path, "/")] = contents
		}
	}

	present := map[string]bool{}
	imports := map[[2]string]bool{} // {importer, imported} directories
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case !d.IsDir():
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dir := filepath.ToSlash(filepath.Dir(path))
				present[dir] = true
				f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
				if err != nil {
					return err
				}
				for _, spec := range f.Imports {
					imp, _ := strconv.Unquote(spec.Path.Value)
					if pkg, ok := strings.CutPrefix(imp, "xmorph/"); ok {
						imports[[2]string{dir, pkg}] = true
					}
				}
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
		if _, ok := documented[p]; !ok {
			t.Errorf("%s holds Go code but has no DESIGN.md §2 row", p)
		}
	}
	for _, p := range sortedKeys(documented) {
		if !present[p] {
			t.Errorf("DESIGN.md §2 has a row for %s, which holds no Go code", p)
		}
	}

	resolve := func(name string) (string, bool) {
		for _, dir := range []string{name, "internal/" + name} {
			if present[dir] {
				return dir, true
			}
		}
		return "", false
	}
	for _, row := range sortedKeys(documented) {
		if !present[row] {
			continue
		}
		for _, m := range importClause.FindAllStringSubmatch(documented[row], -1) {
			for _, tick := range backticked.FindAllStringSubmatch(m[2], -1) {
				name := tick[1]
				pkg, ok := resolve(name)
				switch {
				case !ok:
					t.Errorf("DESIGN.md §2 row %s: %q names `%s`, which is no package of the module", row, m[1], name)
				case m[1] == "Imports" && !imports[[2]string{row, pkg}]:
					t.Errorf("DESIGN.md §2 row %s says it imports `%s`; it does not", row, name)
				case m[1] == "imported by" && !imports[[2]string{pkg, row}]:
					t.Errorf("DESIGN.md §2 row %s says `%s` imports it; it does not", row, name)
				}
			}
		}
	}
}

var (
	importClause = regexp.MustCompile(`(Imports|imported by) (.*?)(?:[;:|]|\.(?:\s|$))`)
	backticked   = regexp.MustCompile("`([^`]+)`")
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
