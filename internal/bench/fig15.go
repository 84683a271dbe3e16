package bench

import (
	"fmt"

	"xmorph/internal/gen/dblp"
	"xmorph/internal/gen/nasa"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/xmltree"
)

// fig15Shape is one target-shape variant: deep (a skinny chain) or bushy
// (wide sibling fan-out), small (4-6 labels) or large (10-13 labels) — the
// paper's Figure 15 grid.
type fig15Shape struct {
	Name   string
	Labels int
	Guard  string
}

// fig15Dataset couples a dataset with its four target shapes.
type fig15Dataset struct {
	Name   string
	Build  func(cfg Config) *xmltree.Document
	Shapes []fig15Shape
}

var fig15Datasets = []fig15Dataset{
	{
		Name: "nasa",
		Build: func(cfg Config) *xmltree.Document {
			return nasa.Generate(nasa.Config{Datasets: 400, Seed: cfg.Seed})
		},
		Shapes: []fig15Shape{
			{"deep-small", 4, "CAST MORPH dataset [ title [ abstract [ para ] ] ]"},
			{"bushy-small", 5, "CAST MORPH dataset [ title altname identifier ]"},
			{"deep-large", 10, "CAST MORPH datasets [ dataset [ author [ initial [ lastname [ title [ altname [ abstract [ para [ identifier ] ] ] ] ] ] ] ] ]"},
			{"bushy-large", 12, "CAST MORPH dataset [ title altname identifier abstract [ para ] date [ year month day ] instrument [ name observatory ] ]"},
		},
	},
	{
		Name: "dblp",
		Build: func(cfg Config) *xmltree.Document {
			return dblp.Generate(dblp.Config{Publications: 3000, Seed: cfg.Seed})
		},
		Shapes: []fig15Shape{
			{"deep-small", 4, "CAST MORPH author [ title [ year [ pages ] ] ]"},
			{"bushy-small", 4, "CAST MORPH article [ author title year ]"},
			{"deep-large", 10, "CAST MORPH dblp [ article [ author [ title [ year [ pages [ url [ volume [ journal ] ] ] ] ] ] ] ]"},
			{"bushy-large", 12, "CAST MORPH dblp [ article [ author title year pages url volume journal ] inproceedings [ booktitle crossref ] ]"},
		},
	},
	{
		Name: "xmark",
		Build: func(cfg Config) *xmltree.Document {
			return xmark.Generate(xmark.Config{Factor: 0.02, Seed: cfg.Seed})
		},
		Shapes: []fig15Shape{
			{"deep-small", 4, "CAST MORPH open_auctions [ open_auction [ bidder [ date ] ] ]"},
			{"bushy-small", 4, "CAST MORPH open_auction [ initial current quantity ]"},
			{"deep-large", 11, "CAST MORPH site [ open_auctions [ open_auction [ bidder [ personref [ date [ time [ increase ] ] ] ] seller itemref current ] ] ]"},
			{"bushy-large", 11, "CAST MORPH open_auction [ initial reserve current quantity type seller itemref interval [ start end ] ]"},
		},
	},
}

// Fig15Row is one (dataset, shape) throughput measurement.
type Fig15Row struct {
	Dataset     string
	Shape       string
	Labels      int
	OutputElems int
	RenderMS    float64
	// ElemsPerSec is the paper's y-axis: output elements processed per
	// second.
	ElemsPerSec float64
}

// RunFig15 measures whether the kind of target shape matters: throughput
// should stay steady across shapes within a dataset and vary between
// datasets with element content size.
func RunFig15(cfg Config) ([]Fig15Row, error) {
	dir, cleanup, err := cfg.workdir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rows []Fig15Row
	for _, ds := range fig15Datasets {
		doc := ds.Build(cfg)
		path, _, _, err := cfg.prepareStore(dir, "f15-"+ds.Name, doc)
		if err != nil {
			return nil, err
		}
		for _, sh := range ds.Shapes {
			run, err := cfg.runStored(path, "f15-"+ds.Name, sh.Guard, false)
			if err != nil {
				return nil, fmt.Errorf("fig15 %s/%s: %w", ds.Name, sh.Name, err)
			}
			eps := 0.0
			if run.render > 0 {
				eps = float64(run.nodes) / run.render.Seconds()
			}
			rows = append(rows, Fig15Row{
				Dataset:     ds.Name,
				Shape:       sh.Name,
				Labels:      sh.Labels,
				OutputElems: run.nodes,
				RenderMS:    ms(run.render),
				ElemsPerSec: eps,
			})
		}
	}
	return rows, nil
}

// Fig15Table renders the Figure 15 series.
func Fig15Table(rows []Fig15Row) *Table {
	t := &Table{
		Title:   "Fig 15: effect of target shape (throughput, elements/second)",
		Columns: []string{"dataset", "shape", "labels", "out-elems", "render-ms", "elems/sec"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset,
			r.Shape,
			fmt.Sprint(r.Labels),
			fmt.Sprint(r.OutputElems),
			f1(r.RenderMS),
			f1(r.ElemsPerSec),
		})
	}
	return t
}
