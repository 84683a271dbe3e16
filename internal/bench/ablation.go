package bench

import (
	"fmt"
	"io"
	"time"

	"xmorph/internal/closest"
	"xmorph/internal/core"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/guard"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// AblationRow is one design-choice measurement.
type AblationRow struct {
	Experiment string
	Variant    string
	Millis     float64
	Note       string
}

// RunAblations measures the design choices DESIGN.md calls out:
//
//  1. the Dewey sort-merge closest join vs the naive O(n^2) definition;
//  2. single-pass composed rendering vs physically rendering each
//     composition stage (the architecture the paper rejects);
//  3. streaming output vs materializing the result tree;
//  4. buffer-pool size vs transformation time (cold cache).
func RunAblations(cfg Config) ([]AblationRow, error) {
	var rows []AblationRow

	doc := xmark.Generate(xmark.Config{Factor: 0.02, Seed: cfg.Seed})
	sh := shape.FromDocument(doc)

	// 1. Closest join strategy.
	auctions := doc.NodesOfType("site.open_auctions.open_auction")
	bidders := doc.NodesOfType("site.open_auctions.open_auction.bidder")
	start := time.Now()
	merge := closest.Join(auctions, bidders)
	rows = append(rows, AblationRow{
		Experiment: "closest-join", Variant: "sort-merge",
		Millis: ms(time.Since(start)),
		Note:   fmt.Sprintf("%d pairs from %dx%d", len(merge), len(auctions), len(bidders)),
	})
	start = time.Now()
	naive := 0
	for _, a := range auctions {
		for _, b := range bidders {
			if closest.IsClosest(a, b) {
				naive++
			}
		}
	}
	rows = append(rows, AblationRow{
		Experiment: "closest-join", Variant: "naive-quadratic",
		Millis: ms(time.Since(start)),
		Note:   fmt.Sprintf("%d pairs (must equal sort-merge)", naive),
	})
	if naive != len(merge) {
		return nil, fmt.Errorf("ablation: join strategies disagree: %d vs %d", naive, len(merge))
	}

	// 2. Composition strategy on a three-stage pipeline.
	const pipeline = "CAST MORPH person [ name emailaddress phone ] | MUTATE (DROP phone) | TRANSLATE person -> individual"
	prog := guard.MustParse(pipeline)
	plan, err := semantics.Compile(prog, sh)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	onePass, err := render.Render(doc, plan.ComposedTarget(), nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Experiment: "composition", Variant: "single-pass (shape-composed)",
		Millis: ms(time.Since(start)),
		Note:   fmt.Sprintf("%d output nodes", onePass.Size()),
	})
	start = time.Now()
	perStage, err := renderPerStage(doc, plan)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Experiment: "composition", Variant: "per-stage (physical pipeline)",
		Millis: ms(time.Since(start)),
		Note:   fmt.Sprintf("%d output nodes", perStage.Size()),
	})

	// 3. Output strategy.
	mutTgt, err := semantics.Compile(guard.MustParse("CAST MUTATE site"), sh)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	tree, err := render.Render(doc, mutTgt.ComposedTarget(), nil)
	if err != nil {
		return nil, err
	}
	if err := tree.WriteXML(io.Discard, false); err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Experiment: "output", Variant: "materialize-then-serialize",
		Millis: ms(time.Since(start)),
		Note:   fmt.Sprintf("%d nodes", tree.Size()),
	})
	start = time.Now()
	n, err := render.Stream(doc, mutTgt.ComposedTarget(), io.Discard, nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Experiment: "output", Variant: "stream",
		Millis: ms(time.Since(start)),
		Note:   fmt.Sprintf("%d nodes", n),
	})

	// 4. Buffer-pool size (cold-cache stored transformation).
	dir, cleanup, err := cfg.workdir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	path, _, _, err := prepareStore(dir, "abl-xmark", doc, 256, cfg.Durability)
	if err != nil {
		return nil, err
	}
	for _, pages := range []int{16, 64, 256, 1024} {
		st, err := store.Open(path, store.WithCachePages(pages))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		res, err := core.TransformStored("CAST MUTATE site", st, "abl-xmark", nil)
		if err != nil {
			st.Close()
			return nil, err
		}
		if err := res.Output.WriteXML(io.Discard, false); err != nil {
			st.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		stats := st.Stats()
		st.Close()
		rows = append(rows, AblationRow{
			Experiment: "buffer-pool", Variant: fmt.Sprintf("%d pages", pages),
			Millis: ms(elapsed),
			Note:   fmt.Sprintf("%d blocks read", stats.BlocksRead),
		})
	}
	return rows, nil
}

// renderPerStage physically renders each composition stage, re-deriving
// the intermediate document — the strategy the paper's semantics avoids
// (Ψ renders once); kept here as the ablation baseline.
func renderPerStage(doc *xmltree.Document, plan *semantics.Plan) (*xmltree.Document, error) {
	var cur render.Source = doc
	var out *xmltree.Document
	for _, sp := range plan.Stages {
		o, err := render.Render(cur, sp.Target, nil)
		if err != nil {
			return nil, err
		}
		out = o
		cur = o
	}
	return out, nil
}

// AblationTable renders the ablation results.
func AblationTable(rows []AblationRow) *Table {
	t := &Table{
		Title:   "Ablations: design choices (DESIGN.md)",
		Columns: []string{"experiment", "variant", "ms", "note"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Experiment, r.Variant, f2(r.Millis), r.Note})
	}
	return t
}
