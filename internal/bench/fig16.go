package bench

import (
	"fmt"

	"xmorph/internal/gen/xmark"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// Fig16Ops composes each XMorph operation with one fixed MORPH (the same
// MORPH in every test so the output size stays comparable, as in the
// paper). Operations compile into the target shape, so their run-time cost
// should be flat.
var Fig16Ops = []struct {
	Name  string
	Guard string
}{
	{"morph", "CAST MORPH person [ name emailaddress ]"},
	{"mutate", "CAST MORPH person [ name emailaddress ] | MUTATE person"},
	{"translate", "CAST MORPH person [ name emailaddress ] | TRANSLATE person -> individual"},
	{"drop", "CAST MORPH person [ name emailaddress phone ] | MUTATE (DROP phone)"},
	{"new", "CAST MORPH person [ name emailaddress ] | MUTATE (NEW entry) [ name ]"},
	{"clone", "CAST MORPH person [ name emailaddress ] | MUTATE person [ CLONE emailaddress ]"},
	{"restrict", "CAST MORPH (RESTRICT person [ name ]) [ name emailaddress ]"},
}

// Fig16Row is one operation's cost.
type Fig16Row struct {
	Op          string
	CompileMS   float64
	RenderMS    float64
	OutputElems int
}

// RunFig16 measures the cost of each XMorph operation composed with a
// fixed MORPH on the XMark dataset.
func RunFig16(cfg Config) ([]Fig16Row, error) {
	dir, cleanup, err := cfg.workdir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	doc := xmark.Generate(xmark.Config{Factor: 0.03, Seed: cfg.Seed})
	path, _, _, err := cfg.prepareStore(dir, "f16-xmark", doc)
	if err != nil {
		return nil, err
	}
	var rows []Fig16Row
	for _, op := range Fig16Ops {
		run, err := cfg.runStored(path, "f16-xmark", op.Guard, false)
		if err != nil {
			return nil, fmt.Errorf("fig16 %s: %w", op.Name, err)
		}
		rows = append(rows, Fig16Row{
			Op:          op.Name,
			CompileMS:   ms(run.compile),
			RenderMS:    ms(run.render),
			OutputElems: run.nodes,
		})
	}
	return rows, nil
}

// Fig16Table renders the Figure 16 series.
func Fig16Table(rows []Fig16Row) *Table {
	t := &Table{
		Title:   "Fig 16: cost of each XMorph operation (composed with one MORPH, XMark)",
		Columns: []string{"operation", "compile-ms", "render-ms", "out-elems"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Op, f2(r.CompileMS), f1(r.RenderMS), fmt.Sprint(r.OutputElems)})
	}
	return t
}

// Table1 computes the paper's Table I: path cardinalities between every
// pair of types of the Figure 5(e) shape (instance (c) of Figure 1,
// enriched so authors carry 1..2 books).
func Table1() *Table {
	doc := xmltree.MustParse(`<data>
	  <author>
	    <name>V</name>
	    <book><title>X</title><publisher><name>W</name></publisher></book>
	    <book><title>Y</title><publisher><name>W</name></publisher></book>
	  </author>
	  <author>
	    <name>U</name>
	    <book><title>Z</title><publisher><name>P</name></publisher></book>
	  </author>
	</data>`)
	sh := shape.FromDocument(doc)
	types := sh.Types()
	t := &Table{Title: "Table I: path cardinality for every pair of types (shape of Fig 5(e))"}
	short := func(ty string) string {
		if ty == "data" {
			return ty
		}
		return ty[len("data."):]
	}
	t.Columns = append(t.Columns, "from\\to")
	for _, ty := range types {
		t.Columns = append(t.Columns, short(ty))
	}
	for _, from := range types {
		row := []string{short(from)}
		for _, to := range types {
			c, ok := sh.PathCardOf(from, to)
			if !ok {
				row = append(row, "-")
			} else {
				row = append(row, c.String())
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
