package bench

import (
	"fmt"

	"xmorph/internal/gen/dblp"
)

// Fig14Guards are the paper's three transformation sizes over DBLP.
var Fig14Guards = []struct {
	Name  string
	Guard string
}{
	{"small", "CAST MORPH author"},
	{"medium", "CAST MORPH author [title [year]]"},
	{"large", "CAST MORPH dblp [author [title [year [pages] url]]]"},
}

// Fig14Row is one (slice size, transformation size) measurement.
type Fig14Row struct {
	Publications int
	XMLBytes     int
	Transform    string
	CompileMS    float64
	RenderMS     float64
	BaselineMS   float64
	OutputNodes  int
}

// RunFig14 measures the three DBLP transformations across slice sizes,
// against the eXist-equivalent dump baseline.
func RunFig14(cfg Config) ([]Fig14Row, error) {
	dir, cleanup, err := cfg.workdir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rows []Fig14Row
	for _, pubs := range cfg.DBLPSizes {
		doc := dblp.Generate(dblp.Config{Publications: pubs, Seed: cfg.Seed})
		name := fmt.Sprintf("dblp-%d", pubs)
		path, _, bytes, err := cfg.prepareStore(dir, name, doc)
		if err != nil {
			return nil, err
		}
		baseline, err := cfg.runBaseline(path, name)
		if err != nil {
			return nil, err
		}
		for _, g := range Fig14Guards {
			run, err := cfg.runStored(path, name, g.Guard, false)
			if err != nil {
				return nil, fmt.Errorf("fig14 %s on %d pubs: %w", g.Name, pubs, err)
			}
			rows = append(rows, Fig14Row{
				Publications: pubs,
				XMLBytes:     bytes,
				Transform:    g.Name,
				CompileMS:    ms(run.compile),
				RenderMS:     ms(run.render),
				BaselineMS:   ms(baseline),
				OutputNodes:  run.nodes,
			})
		}
	}
	return rows, nil
}

// Fig14Table renders the Figure 14 series.
func Fig14Table(rows []Fig14Row) *Table {
	t := &Table{
		Title:   "Fig 14: DBLP slices x transformation size vs eXist-equivalent dump",
		Columns: []string{"publications", "xml-MB", "transform", "compile-ms", "render-ms", "baseline-ms", "out-nodes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Publications),
			f2(float64(r.XMLBytes) / (1 << 20)),
			r.Transform,
			f2(r.CompileMS),
			f1(r.RenderMS),
			f1(r.BaselineMS),
			fmt.Sprint(r.OutputNodes),
		})
	}
	return t
}
