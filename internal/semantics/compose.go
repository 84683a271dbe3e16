package semantics

// maxComposedTypes caps the types of a composed target. Composition
// copies a later stage's type once per producer of its source path, so a
// chain of CLONE stages doubles the target at every stage: 16 stages of
// "MORPH a [ b CLONE b ]", a guard of a few hundred bytes, compose to
// 65 537 types, and 30 to about 10⁹. The paper's largest shape has 471.
const maxComposedTypes = 1 << 15

// ComposedTarget returns the pipeline's stage targets folded into one
// target over the original source types, implementing the paper's
// composition semantics: ξ[COMPOSE P Q](S) = ξ[Q](ξ[P](S)), with the data
// rendered once from the original closest graph (Ψ[P](G, S) = render(G,
// ξ[P](S))). Each later stage's target references the previous stage's
// *output* types (its predicted shape); composition substitutes those
// references with the earlier stage's source mapping, so the final target
// speaks entirely in source types. Compile composes it once; callers
// share it and must not modify it.
func (p *Plan) ComposedTarget() *Target { return p.composed }

// composeTargets rewrites t2 (expressed over t1's output type paths) into a
// target over t1's source types. Structure comes from t2; source mapping,
// clone/fill marks, and RESTRICT requirements come from the t1 node each
// output path resolves to. An output path produced by several t1 nodes
// (e.g. a clone next to its original) expands into one composed node per
// producer. It returns nil, having stopped early, when the result would
// have more than maxComposedTypes types.
func composeTargets(t1, t2 *Target) *Target {
	idx := map[string][]*TNode{}
	var indexWalk func(n *TNode, parentPath string)
	indexWalk = func(n *TNode, parentPath string) {
		path := n.Name
		if parentPath != "" {
			path = parentPath + "." + n.Name
		}
		idx[path] = append(idx[path], n)
		for _, k := range n.Kids {
			indexWalk(k, path)
		}
	}
	for _, r := range t1.Roots {
		indexWalk(r, "")
	}

	made := 0
	var conv func(n *TNode) []*TNode
	conv = func(n *TNode) []*TNode {
		producers := idx[n.Source]
		if made += max(len(producers), 1); made > maxComposedTypes {
			return nil
		}
		if n.Source == "" || len(producers) == 0 {
			// Manufactured in t2 (or referencing a type t1 does not
			// produce, e.g. a TYPE-FILL): stays manufactured.
			out := &TNode{Name: n.Name, Fill: n.Fill}
			for _, k := range n.Kids {
				for _, ck := range conv(k) {
					out.Attach(ck)
				}
			}
			return []*TNode{out}
		}
		var outs []*TNode
		for _, t1n := range producers {
			out := &TNode{
				Name:   n.Name,
				Source: t1n.Source,
				Clone:  t1n.Clone || n.Clone,
				Fill:   t1n.Fill || n.Fill,
			}
			// t1's requirements filter the same vertices in the composed
			// render; t2's requirements are converted recursively.
			for _, r := range t1n.Require {
				out.addRequire(r.Copy())
			}
			for _, r := range n.Require {
				for _, cr := range conv(r) {
					out.addRequire(cr)
				}
			}
			for _, k := range n.Kids {
				for _, ck := range conv(k) {
					out.Attach(ck)
				}
			}
			outs = append(outs, out)
		}
		return outs
	}

	out := &Target{}
	for _, r := range t2.Roots {
		out.Roots = append(out.Roots, conv(r)...)
	}
	if made > maxComposedTypes {
		return nil
	}
	return out
}
