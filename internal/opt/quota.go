package opt

import "pathalgebra/internal/core"

// pipelineQuota decides whether the projection pipeline p, whose π node
// is n, lets the product search below it stop producing paths per
// endpoint pair, and how many it must still produce: the quota Derive
// pushes below n's γ, zero when none. It recognizes the Table 7 selector
// shapes whose per-pair answer is a prefix of the search's discovery
// order:
//
//   - π(*,*,k)(γST(X))       ANY k: the first k paths of each pair;
//   - π(*,*,k)(τA(γST(X)))   SHORTEST k: the k shortest, ties in
//     discovery order — the same k paths, because the search discovers
//     each pair's paths in ascending length;
//   - π(*,k,*)(τG(γSTL(X)))  SHORTEST k GROUP: every path of the k
//     smallest distinct lengths of each pair (Quota.ByLength).
//
// X must be made of operators a per-pair prefix survives: pattern
// recursions under Walk, Trail, Acyclic or Simple (ϕShortest already
// enumerates only minimal paths), selections that read nothing but the
// endpoints (they keep or drop a pair whole), and unions of such (each
// side's kept prefix contains its share of the union's). A descending or
// non-* bound at another level, a length or interior condition, a join or
// a non-pattern recursion base all reject: there the discarded paths
// decide what survives.
//
// Soundness rests on three facts: the quota'd search emits a subsequence
// of the unrestricted discovery order; γ, τ and π are stable, so they map
// that subsequence to the paths — in the order — they would have kept
// anyway; and under Walk a product state's k-th visitor dominates every
// later one (same suffixes, earlier discovery).
func pipelineQuota(p core.Project, n *Node) core.Quota {
	if !unbounded(p.Parts) {
		return core.Quota{}
	}
	var gb core.GroupBy
	var order core.OrderKey
	switch in := p.In.(type) {
	case core.GroupBy:
		gb = in
	case core.OrderBy:
		inner, ok := in.In.(core.GroupBy)
		if !ok {
			return core.Quota{}
		}
		gb, order = inner, in.Key
	default:
		return core.Quota{}
	}
	var q core.Quota
	switch {
	case gb.Key == core.GroupST && (order == 0 || order == core.OrderPath) &&
		unbounded(p.Groups) && bounded(p.Paths):
		q = core.Quota{K: p.Paths.N}
	case gb.Key == core.GroupSTL && order == core.OrderGroup &&
		unbounded(p.Paths) && bounded(p.Groups):
		q = core.Quota{K: p.Groups.N, ByLength: true}
	default:
		return core.Quota{}
	}
	if in := pathInput(n); in == nil || !in.perPair {
		return core.Quota{}
	}
	return q
}

// unbounded reports the ascending * bound; bounded an ascending first-n
// bound with n ≥ 1.
func unbounded(c core.Count) bool { return c.All && !c.Desc }
func bounded(c core.Count) bool   { return !c.All && !c.Desc && c.N >= 1 }
