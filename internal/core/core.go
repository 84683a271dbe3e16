// Package core is the XMorph 2.0 interpreter — the paper's primary
// contribution assembled into one pipeline (Figure 8):
//
//	parse guard -> compile against the adorned shape (type analysis,
//	label-to-type report) -> potential-information-loss check (CAST
//	enforcement) -> shape generation -> render to XML.
//
// The compile phase never touches the data, only the adorned shape; the
// render phase streams over the touched type sequences (Section VII). The
// two phases are timed separately because Figure 10 plots them separately.
package core

import (
	"fmt"
	"io"
	"time"

	"xmorph/internal/closest"
	"xmorph/internal/guard"
	"xmorph/internal/kvstore"
	"xmorph/internal/loss"
	"xmorph/internal/obs"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// Pipeline metrics, reported into the default registry on every compile
// and render (a handful of atomic adds per query; always on). The CLI's
// --metrics flag and xmorphbench's /metrics endpoint expose them.
var (
	metricTransforms     = obs.Default.Counter("xmorph_transforms_total")
	metricCompileErrors  = obs.Default.Counter("xmorph_compile_errors_total")
	metricCompileSeconds = obs.Default.Histogram("xmorph_compile_seconds", obs.DurationBuckets)
	metricRenderSeconds  = obs.Default.Histogram("xmorph_render_seconds", obs.DurationBuckets)
)

// Checked is a compiled and loss-checked guard, ready to render.
type Checked struct {
	Program *guard.Program
	Plan    *semantics.Plan
	Loss    *loss.Report
	// CompileTime covers parsing, shape compilation, and the loss check.
	CompileTime time.Duration
}

// Analyze compiles guardSrc against an input shape and runs the
// information-loss analysis WITHOUT enforcing the guard's CAST mode — for
// inspecting why a guard would be rejected. No data is read.
//
// Under a non-nil parent span it opens a "compile" child covering the
// whole compile phase with "parse-guard", "typecheck" (annotated with the
// resolved label count), and "loss-check" (annotated with the typing
// verdict) below it. A nil parent is free.
func Analyze(guardSrc string, sh *shape.Shape, parent *obs.Span) (*Checked, error) {
	start := time.Now()
	csp := parent.Child("compile")
	defer csp.End()

	psp := csp.Child("parse-guard")
	prog, err := guard.Parse(guardSrc)
	psp.End()
	if err != nil {
		metricCompileErrors.Inc()
		return nil, err
	}

	tsp := csp.Child("typecheck")
	plan, err := semantics.Compile(prog, sh)
	tsp.End()
	if err != nil {
		metricCompileErrors.Inc()
		return nil, err
	}
	tsp.Set("labels", int64(len(plan.Labels)))

	lsp := csp.Child("loss-check")
	rep := loss.Analyze(plan)
	lsp.SetStr("verdict", rep.Verdict.String())
	lsp.End()

	compileTime := time.Since(start)
	metricCompileSeconds.Observe(compileTime.Seconds())
	return &Checked{
		Program:     prog,
		Plan:        plan,
		Loss:        rep,
		CompileTime: compileTime,
	}, nil
}

// Check is Analyze plus type enforcement: by default only strongly-typed
// guards pass; CAST modifiers widen what is admitted (Section III). This
// is the whole "compile" cost of Figure 10. Span behaviour matches
// Analyze; a nil parent is free.
func Check(guardSrc string, sh *shape.Shape, parent *obs.Span) (*Checked, error) {
	checked, err := Analyze(guardSrc, sh, parent)
	if err != nil {
		return nil, err
	}
	if err := loss.Enforce(checked.Program.Cast, checked.Loss); err != nil {
		metricCompileErrors.Inc()
		return nil, err
	}
	return checked, nil
}

// Result is a completed transformation.
type Result struct {
	*Checked
	Output *xmltree.Document
	// RenderTime covers the single-pass render of the composed target.
	RenderTime time.Duration
}

// LabelReport renders the label-to-type report (Section VIII).
func (c *Checked) LabelReport() string {
	if len(c.Plan.Labels) == 0 {
		return "no labels resolved\n"
	}
	out := ""
	for _, l := range c.Plan.Labels {
		switch {
		case l.Filled:
			out += fmt.Sprintf("label %q: no matching type; TYPE-FILL manufactured <%s>\n", l.Label, l.Label)
		case len(l.Candidates) > 1:
			out += fmt.Sprintf("label %q: ambiguous over %v; resolved to %v\n", l.Label, l.Candidates, l.Types)
		default:
			out += fmt.Sprintf("label %q: %v\n", l.Label, l.Types)
		}
	}
	return out
}

// Render runs the checked guard over a source in a single pass: composed
// stages were already folded into one target shape at compile time
// (Section VI's Ψ[P](G, S) = render(G, ξ[P](S))), so the data is read
// once regardless of how many operations the guard composes — the property
// Figure 16 measures.
// Under a non-nil parent span it opens a "render" child annotated with
// the closest-join statistics and output node count.
func (c *Checked) Render(src render.Source, parent *obs.Span) (*Result, error) {
	rsp := parent.Child("render")
	res, err := c.RenderOn(src, rsp)
	rsp.End()
	return res, err
}

// RenderOn runs the render phase annotating rsp directly — for callers
// (like the store-aware transform and the engine facade) that own the
// render span and fold extra measurements (page I/O deltas) into it.
func (c *Checked) RenderOn(src render.Source, rsp *obs.Span) (*Result, error) {
	start := time.Now()
	out, err := render.Render(src, c.Plan.ComposedTarget(), rsp)
	if err != nil {
		return nil, err
	}
	renderTime := time.Since(start)
	metricTransforms.Inc()
	metricRenderSeconds.Observe(renderTime.Seconds())
	return &Result{
		Checked:    c,
		Output:     out,
		RenderTime: renderTime,
	}, nil
}

// Transform compiles and runs a guard over an in-memory document. Under
// a non-nil parent span it covers shape extraction, compile, and render.
func Transform(guardSrc string, doc *xmltree.Document, parent *obs.Span) (*Result, error) {
	ssp := parent.Child("shape")
	sh := shape.FromDocument(doc)
	ssp.End()
	checked, err := Check(guardSrc, sh, parent)
	if err != nil {
		return nil, err
	}
	return checked.Render(doc, parent)
}

// TransformString parses an XML string and transforms it; convenience for
// examples and tests.
func TransformString(guardSrc, xmlSrc string) (*Result, error) {
	doc, err := xmltree.ParseString(xmlSrc)
	if err != nil {
		return nil, err
	}
	return Transform(guardSrc, doc, nil)
}

// TransformStored compiles a guard against the stored adorned shape of a
// shredded document (the shape record is tiny relative to the data) and
// renders from the store's lazy type sequences.
//
// Under a non-nil parent span each phase span additionally carries the
// pages it read from the store, so a trace shows where the block I/O of
// Figs. 11-12 actually happens: load-shape touches the tiny AdornedShapes
// record, render drags in the type sequences.
func TransformStored(guardSrc string, st *store.Store, docName string, parent *obs.Span) (*Result, error) {
	pagesRead := func(before kvstore.Stats) int64 { return st.Stats().BlocksRead - before.BlocksRead }

	ssp := parent.Child("load-shape")
	before := st.Stats()
	sh, err := st.Shape(docName)
	ssp.Set("pages-read", pagesRead(before))
	ssp.End()
	if err != nil {
		return nil, err
	}

	checked, err := Check(guardSrc, sh, parent)
	if err != nil {
		return nil, err
	}

	dsp := parent.Child("load-doc")
	before = st.Stats()
	doc, err := st.Doc(docName)
	dsp.Set("pages-read", pagesRead(before))
	dsp.End()
	if err != nil {
		return nil, err
	}

	rsp := parent.Child("render")
	before = st.Stats()
	res, rerr := checked.RenderOn(doc, rsp)
	rsp.Set("pages-read", pagesRead(before))
	rsp.End()
	return res, rerr
}

// Verify empirically compares the closest graphs of a source document and
// a rendered output (Definition 5, run literally over the instances) and
// quantifies the loss — the "30% new information" refinement the paper's
// Section X asks for. It materializes both closest graphs, so use it on
// documents, not whole corpora; the static Loss report is the scalable
// check.
func Verify(src, out *xmltree.Document) closest.Result {
	return closest.Compare(closest.Build(src), closest.Build(out))
}

// StreamOn renders the checked guard directly to w without materializing
// the output tree (Section VII's streaming evaluation); it returns the
// number of elements and attributes written. Like RenderOn it annotates
// the caller's span ssp directly — join statistics, nodes emitted, and
// bytes written — so the caller can fold page I/O into the same span.
func (c *Checked) StreamOn(src render.Source, w io.Writer, ssp *obs.Span) (int, error) {
	start := time.Now()
	n, err := render.Stream(src, c.Plan.ComposedTarget(), w, ssp)
	if err == nil {
		metricTransforms.Inc()
		metricRenderSeconds.Observe(time.Since(start).Seconds())
	}
	return n, err
}
