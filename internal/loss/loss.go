// Package loss implements the potential-information-loss analysis of
// Section V: before any data is touched, a compiled guard is checked
// against the adorned shape of its input by comparing path cardinalities
// (Definition 6) with the predicted cardinalities of the target arrangement
// (Definition 7).
//
//   - Theorem 1 (inclusive / widening-safe): the transform loses no data if
//     no pair of types has its minimum path cardinality increase from zero
//     to non-zero in the predicted shape.
//   - Theorem 2 (non-additive / narrowing-safe): the transform creates no
//     data if no pair of types has its maximum path cardinality increase.
//
// The paper's verdict vocabulary maps onto the two checks: a guard is
// "narrowing" when it ensures data is not created (non-additive),
// "widening" when it ensures no data is lost (inclusive), strongly-typed
// when both hold, and weakly-typed when neither does.
package loss

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"xmorph/internal/guard"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
)

// Verdict is the typing verdict of a guard (Section I's terminology).
type Verdict int

const (
	// StronglyTyped guards neither create nor lose data.
	StronglyTyped Verdict = iota
	// Narrowing guards create no data but may lose some.
	Narrowing
	// Widening guards lose no data but may create some.
	Widening
	// WeaklyTyped guards may both create and lose data.
	WeaklyTyped
)

func (v Verdict) String() string {
	switch v {
	case StronglyTyped:
		return "strongly-typed"
	case Narrowing:
		return "narrowing"
	case Widening:
		return "widening"
	case WeaklyTyped:
		return "weakly-typed"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// FindingKind classifies one potential-loss finding.
type FindingKind int

const (
	// NonInclusive: a pair's minimum path cardinality rises from zero, so
	// vertices missing the now-required ancestor are dropped (Theorem 1).
	NonInclusive FindingKind = iota
	// Additive: a pair's maximum path cardinality increases, so closest
	// relationships not present in the source are manufactured (Theorem 2).
	Additive
	// RestrictFilter: a RESTRICT requirement may filter out vertices; the
	// guard is conservatively flagged as potentially losing data.
	RestrictFilter
	// Manufactured: NEW or TYPE-FILL introduces vertices that do not exist
	// in the source; the guard creates data.
	Manufactured
)

func (k FindingKind) String() string {
	switch k {
	case NonInclusive:
		return "non-inclusive"
	case Additive:
		return "additive"
	case RestrictFilter:
		return "restrict-filter"
	case Manufactured:
		return "manufactured"
	}
	return fmt.Sprintf("FindingKind(%d)", int(k))
}

// Finding pinpoints which part of the transformation potentially loses or
// creates information — the feedback an XQuery programmer uses to decide
// whether to add a CAST (Section I).
type Finding struct {
	Kind FindingKind
	// Stage indexes the pipeline stage the finding belongs to.
	Stage int
	// FromType and ToType are the source types of the offending pair (or
	// the manufactured type's name).
	FromType string
	ToType   string
	// SrcCard and PredCard are the path cardinalities in the input shape
	// and in the predicted target shape.
	SrcCard  shape.Card
	PredCard shape.Card
}

// String renders the finding for the information-loss report.
func (f Finding) String() string {
	switch f.Kind {
	case NonInclusive:
		return fmt.Sprintf("stage %d: path %s ~> %s: min cardinality rises %s -> %s; vertices of %s without a closest %s will be dropped",
			f.Stage+1, f.FromType, f.ToType, f.SrcCard, f.PredCard, f.FromType, f.ToType)
	case Additive:
		return fmt.Sprintf("stage %d: path %s ~> %s: max cardinality rises %s -> %s; closest relationships not in the source will be created",
			f.Stage+1, f.FromType, f.ToType, f.SrcCard, f.PredCard)
	case RestrictFilter:
		return fmt.Sprintf("stage %d: RESTRICT on %s may filter out vertices", f.Stage+1, f.FromType)
	case Manufactured:
		return fmt.Sprintf("stage %d: type %s is manufactured; its elements do not exist in the source", f.Stage+1, f.FromType)
	}
	return fmt.Sprintf("stage %d: %s %s ~> %s", f.Stage+1, f.Kind, f.FromType, f.ToType)
}

// Report is the information-loss report for a whole guard.
type Report struct {
	// Verdict is the combined typing verdict.
	Verdict Verdict
	// NonAdditive and Inclusive are the two component guarantees.
	NonAdditive bool
	Inclusive   bool
	Findings    []Finding
}

// String renders the report as the tool prints it.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guard is %s", r.Verdict)
	if len(r.Findings) == 0 {
		b.WriteString(" (no potential information loss)")
		return b.String()
	}
	b.WriteString("\n")
	for _, f := range r.Findings {
		b.WriteString("  - ")
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Analyze checks every stage of a compiled plan and combines the component
// guarantees: the pipeline is inclusive (resp. non-additive) only when
// every stage is.
func Analyze(p *semantics.Plan) *Report {
	r := &Report{NonAdditive: true, Inclusive: true}
	for i, sp := range p.Stages {
		analyzeStage(r, i, sp)
	}
	switch {
	case r.NonAdditive && r.Inclusive:
		r.Verdict = StronglyTyped
	case r.NonAdditive:
		r.Verdict = Narrowing
	case r.Inclusive:
		r.Verdict = Widening
	default:
		r.Verdict = WeaklyTyped
	}
	return r
}

func analyzeStage(r *Report, idx int, sp *semantics.StagePlan) {
	// Number the target types in preorder, each below its parent's id,
	// into a forest carrying their predicted edge cardinalities
	// (Definition 7), and resolve each sourced type's input type id once:
	// the pairwise loop below is quadratic in the number of types and runs
	// on every guard compile, so a pair reads no map (the paper reports
	// ~20 ms compiles on 471-type shapes). The target is a tree, so each
	// type is numbered once and placed by its parent, as the renderer and
	// Definition 7 see it.
	var (
		target  shape.Forest
		sourced []int // target ids of the sourced types, in preorder
		srcIDs  []int // their input type ids, -1 when not an input type
	)
	var number func(n *semantics.TNode, parent int)
	number = func(n *semantics.TNode, parent int) {
		id := target.Add(parent, n.EdgeCard(sp.Input))
		if n.Source != "" {
			src, ok := sp.Input.ID(n.Source)
			if !ok {
				src = -1
			}
			sourced = append(sourced, id)
			srcIDs = append(srcIDs, src)
		} else {
			r.NonAdditive = false
			r.Findings = append(r.Findings, Finding{
				Kind: Manufactured, Stage: idx, FromType: n.Name,
			})
		}
		if len(n.Require) > 0 {
			r.Inclusive = false
			r.Findings = append(r.Findings, Finding{
				Kind: RestrictFilter, Stage: idx, FromType: n.Source,
			})
		}
		for _, k := range n.Kids {
			number(k, id)
		}
	}
	for _, root := range sp.Target.Roots {
		number(root, -1)
	}

	// Pairwise path-cardinality comparison (Theorems 1 and 2) over the
	// retained types. Ordered pairs: the upward direction encodes "every a
	// must sit below some b". PathCard gives a pair's cardinalities in
	// both directions, so each unordered pair is visited once and the
	// findings are put back in the order of their ordered pairs. Target
	// types copied from one input type (a child closest to two parents, a
	// CLONE below every context type) repeat their findings, as many as
	// the square of the copies: a finding is listed once, at its first
	// ordered pair.
	type pairFinding struct {
		from, to int // indexes into sourced
		f        Finding
	}
	var found []pairFinding
	type key struct {
		kind      FindingKind
		from, to  int // input type ids
		src, pred shape.Card
	}
	at := map[key]int{} // a finding's index in found
	add := func(k FindingKind, i, j int, cardS, cardR shape.Card) {
		if x, ok := at[key{k, srcIDs[i], srcIDs[j], cardS, cardR}]; ok {
			if pf := &found[x]; cmp.Or(i-pf.from, j-pf.to) < 0 {
				pf.from, pf.to = i, j
			}
			return
		}
		at[key{k, srcIDs[i], srcIDs[j], cardS, cardR}] = len(found)
		found = append(found, pairFinding{i, j, Finding{
			Kind: k, Stage: idx,
			FromType: sp.Input.Name(srcIDs[i]), ToType: sp.Input.Name(srcIDs[j]),
			SrcCard: cardS, PredCard: cardR,
		}})
	}
	check := func(i, j int, cardS, cardR shape.Card) {
		if cardS.Min == 0 && cardR.Min > 0 {
			r.Inclusive = false
			add(NonInclusive, i, j, cardS, cardR)
		}
		if cardR.Max > cardS.Max {
			r.NonAdditive = false
			add(Additive, i, j, cardS, cardR)
		}
	}
	for i := range sourced {
		for j := i + 1; j < len(sourced); j++ {
			if srcIDs[i] < 0 || srcIDs[j] < 0 {
				continue
			}
			srcIJ, srcJI, ok := sp.Input.PathCard(srcIDs[i], srcIDs[j])
			if !ok {
				continue // disconnected in the input
			}
			tgtIJ, tgtJI, ok := target.PathCard(sourced[i], sourced[j])
			if !ok {
				continue // disconnected in the target: no requirement
			}
			check(i, j, srcIJ, tgtIJ)
			check(j, i, srcJI, tgtJI)
		}
	}
	slices.SortFunc(found, func(a, b pairFinding) int { return cmp.Or(a.from-b.from, a.to-b.to, int(a.f.Kind-b.f.Kind)) })
	for _, pf := range found {
		r.Findings = append(r.Findings, pf.f)
	}
}

// CastError reports that a guard's verdict exceeds what its cast mode
// admits; the findings say exactly where the loss would happen.
type CastError struct {
	Mode    guard.CastMode
	Verdict Verdict
	Report  *Report
}

func (e *CastError) Error() string {
	return fmt.Sprintf("guard: %s transformation rejected (mode %s); %s",
		e.Verdict, e.Mode, e.Report)
}

// Enforce applies the type-enforcement policy of Section III: by default
// only strongly-typed guards run; CAST-NARROWING additionally admits
// narrowing guards, CAST-WIDENING widening guards, and CAST anything.
func Enforce(mode guard.CastMode, r *Report) error {
	ok := false
	switch mode {
	case guard.CastNone:
		ok = r.Verdict == StronglyTyped
	case guard.CastNarrowing:
		ok = r.Verdict == StronglyTyped || r.Verdict == Narrowing
	case guard.CastWidening:
		ok = r.Verdict == StronglyTyped || r.Verdict == Widening
	case guard.CastWeak:
		ok = true
	}
	if !ok {
		return &CastError{Mode: mode, Verdict: r.Verdict, Report: r}
	}
	return nil
}
