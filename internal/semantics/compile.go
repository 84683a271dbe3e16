package semantics

import (
	"fmt"
	"sort"

	"xmorph/internal/guard"
	"xmorph/internal/shape"
)

// Plan is a compiled guard: one StagePlan per pipeline stage, evaluated
// against the adorned shape of the source (never the data — Section VI:
// "a query guard is only a specification of a desired shape").
type Plan struct {
	Program *guard.Program
	// Source is the adorned shape the plan was compiled against.
	Source *shape.Shape
	// Stages are the pipeline stages in evaluation order.
	Stages []*StagePlan
	// Labels is the label-to-type report (Section VIII), in guard order.
	Labels []LabelResolution
	// composed is the stages' targets folded into one (ComposedTarget).
	composed *Target
}

// StagePlan is one evaluated stage.
type StagePlan struct {
	Stage *guard.Stage
	// Input is the stage's input shape (the source shape, or the previous
	// stage's predicted output).
	Input *shape.Shape
	// Target is the stage's transformed arrangement of Input's types.
	Target *Target
	// Output is the predicted adorned shape of the rendered stage output;
	// it seeds the next stage.
	Output *shape.Shape
}

// Compile evaluates the semantic function ξ of every stage against the
// source shape, threading each stage's predicted output shape into the
// next stage (COMPOSE pipes shapes, Section VI), and composes the stage
// targets into the one target the executors render.
func Compile(prog *guard.Program, src *shape.Shape) (*Plan, error) {
	plan := &Plan{Program: prog, Source: src}
	in := src
	for _, st := range prog.Stages {
		ev := &evaluator{in: in, typeFill: prog.TypeFill, res: map[*guard.Term]*LabelResolution{}}
		var (
			tgt *Target
			err error
		)
		switch st.Kind {
		case guard.StageMorph:
			tgt, err = ev.morph(st)
		case guard.StageMutate:
			tgt, err = ev.mutate(st)
		case guard.StageTranslate:
			tgt, err = ev.translate(st)
		default:
			err = fmt.Errorf("semantics: unknown stage kind %v", st.Kind)
		}
		if err != nil {
			return nil, err
		}
		for _, r := range ev.res {
			plan.Labels = append(plan.Labels, *r)
		}
		out := tgt.OutputShape(in)
		plan.Stages = append(plan.Stages, &StagePlan{Stage: st, Input: in, Target: tgt, Output: out})
		in = out
	}
	sort.SliceStable(plan.Labels, func(i, j int) bool { return plan.Labels[i].Pos < plan.Labels[j].Pos })
	plan.composed = plan.Stages[0].Target
	for _, sp := range plan.Stages[1:] {
		if plan.composed = composeTargets(plan.composed, sp.Target); plan.composed == nil {
			return nil, fmt.Errorf("semantics: the guard composes to more than %d target types", maxComposedTypes)
		}
	}
	return plan, nil
}

// Final returns the last stage's target, the arrangement actually rendered
// last.
func (p *Plan) Final() *StagePlan { return p.Stages[len(p.Stages)-1] }

// maxStageCopies caps the types one stage copies to give a node another
// place in its target (a closest child below a second parent, a CLONE
// below each context node). A copy can hold earlier copies: "MUTATE a [
// CLONE c ]" over five nested <a><c> pairs builds 11 412 types and over
// six 495 047, and the loss check is quadratic in them. A stage that
// copies nothing, as an identity guard over any shape, is not bounded.
const maxStageCopies = 1 << 12

// evaluator evaluates one stage against an input shape.
type evaluator struct {
	in       *shape.Shape
	typeFill bool
	res      map[*guard.Term]*LabelResolution
	copied   int // types copied so far, bounded by maxStageCopies
}

// copyOf returns a copy of n's subtree for one more place in the target,
// or an error once the stage has copied more than maxStageCopies types.
func (ev *evaluator) copyOf(n *TNode) (*TNode, error) {
	if ev.copied += n.size(); ev.copied > maxStageCopies {
		return nil, fmt.Errorf("semantics: a stage copies more than %d target types", maxStageCopies)
	}
	return n.Copy(), nil
}

// resolveLabel matches a label term against the input types, recording the
// resolution. With TYPE-FILL on, an unmatched label yields (nil, true, nil)
// and the caller manufactures a filled type.
func (ev *evaluator) resolveLabel(term *guard.Term) (types []string, filled bool, err error) {
	cands := matchTypes(term.Label, ev.in)
	r := &LabelResolution{Label: term.Label, Pos: term.Pos, Candidates: cands, Types: cands}
	ev.res[term] = r
	if len(cands) == 0 {
		if ev.typeFill {
			r.Filled = true
			return nil, true, nil
		}
		return nil, false, &TypeError{Label: term.Label, Pos: term.Pos}
	}
	return cands, false, nil
}

// recordKept narrows a label's reported resolution to the types that
// survived closeness pruning.
func (ev *evaluator) recordKept(term *guard.Term, kept []string) {
	if r, ok := ev.res[term]; ok {
		set := map[string]bool{}
		for _, k := range kept {
			set[k] = true
		}
		var out []string
		for _, t := range r.Types {
			if set[t] {
				out = append(out, t)
			}
		}
		r.Types = out
	}
}
