// Package core holds the stateless steps of the XMorph 2.0 interpreter's
// pipeline (Figure 8):
//
//	parse guard -> compile against the adorned shape (type analysis,
//	label-to-type report) -> potential-information-loss check (CAST
//	enforcement) -> shape generation -> render to XML.
//
// This package is the stateless layer internal/engine wraps: Check
// compiles a guard against a shape and Checked renders it over any
// render.Source into a tree; Transform runs both over an in-memory
// document. Running a guard against a store — loading its shape and type
// sequences, caching the compilation, streaming the XML to a writer — is
// internal/engine's job. The compile phase never touches the data, only
// the adorned shape; the render phase streams over the touched type
// sequences (Section VII). The two phases are timed separately because
// Figure 10 plots them separately.
package core

import (
	"fmt"
	"time"

	"xmorph/internal/guard"
	"xmorph/internal/loss"
	"xmorph/internal/obs"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
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
	defer rsp.End()
	start := time.Now()
	out, err := render.Render(src, c.Plan.ComposedTarget(), rsp)
	if err != nil {
		return nil, err
	}
	renderTime := time.Since(start)
	ObserveTransform(renderTime)
	return &Result{
		Checked:    c,
		Output:     out,
		RenderTime: renderTime,
	}, nil
}

// ObserveTransform records one successful transformation, and the time
// its render phase took, in the pipeline metrics. Render calls it; so
// does every other path that runs a checked guard (the engine's stored
// Runs).
func ObserveTransform(d time.Duration) {
	metricTransforms.Inc()
	metricRenderSeconds.Observe(d.Seconds())
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
