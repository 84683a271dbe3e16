package engine

import (
	"io"

	"xmorph/internal/closest"
	"xmorph/internal/core"
	"xmorph/internal/guard"
	"xmorph/internal/infer"
	"xmorph/internal/obs"
	"xmorph/internal/xmltree"
)

// The store-less entry points: one-shot transformations over XML read
// directly from a file or stream, guard inspection, and guard inference.
// They live on the engine facade so its callers need no other pipeline
// package.

// FileResult is a one-shot transformation's outcome together with the
// parsed source document (kept for empirical verification).
type FileResult struct {
	// Source is the parsed input document.
	Source *xmltree.Document
	// Checked is the compiled guard; Output the materialized result.
	*Checked
	Output *xmltree.Document
}

// TransformReader parses an XML document from r and runs guardSrc over it
// — the CLI's run-file path (the paper's architecture #1 without a
// store). The span traces parse-xml (annotated with the node count),
// shape extraction, compile, and render.
func TransformReader(guardSrc string, r io.Reader, sp *obs.Span) (*FileResult, error) {
	psp := sp.Child("parse-xml")
	doc, err := xmltree.Parse(r)
	if err != nil {
		psp.End()
		return nil, err
	}
	psp.Set("nodes", int64(doc.Size()))
	psp.End()
	res, err := core.Transform(guardSrc, doc, sp)
	if err != nil {
		return nil, err
	}
	return &FileResult{Source: doc, Checked: res.Checked, Output: res.Output}, nil
}

// Verify empirically compares the closest graphs of a source document and
// a rendered output and quantifies the loss (Definition 5 run literally
// over the instances) — the "30% new information" refinement the paper's
// Section X asks for. It materializes both graphs: use it on documents,
// not corpora; the static loss report is the scalable check.
func Verify(src, out *xmltree.Document) closest.Result {
	return closest.Compare(closest.Build(src), closest.Build(out))
}

// Explain parses guardSrc and renders its algebra tree (Section VI's
// operator composition) without touching any data.
func Explain(guardSrc string) (string, error) {
	prog, err := guard.Parse(guardSrc)
	if err != nil {
		return "", err
	}
	return prog.Algebra(), nil
}

// InferGuard derives the MORPH guard an XQuery query needs from the
// query's path expressions (Section VIII's guard inference).
func InferGuard(query string) (string, error) { return infer.FromQuery(query) }
