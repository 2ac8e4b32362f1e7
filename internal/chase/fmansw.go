package chase

import (
	"sort"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// FMAnsW is the comparison baseline of §7: a frequent-pattern-mining
// query suggester in the spirit of Mottin et al. (KDD 2015). It mines
// frequent features — attribute values on focus candidates and labeled
// neighbors within two hops — around the desired entities, assembles
// candidate star queries from frequent feature combinations, evaluates
// each, and returns the one with the best closeness. It suggests whole
// queries rather than rewrites (Ops is empty, Replaced set) and serves
// as the slow, example-agnostic baseline.
func (w *Why) FMAnsW() Answer {
	r := w.startRun()
	defer r.end()

	rootAns, _ := r.root()
	focusLabel := w.Q.Nodes[w.Q.Focus].Label

	// Mine features "around V_{u_o}" (§7): the whole focus candidate
	// pool, weighting desired entities (rep members) double so frequent
	// features lean toward the exemplar. Mining over every candidate's
	// two-hop neighborhood is what makes this baseline expensive.
	pool := w.FocusCands
	const maxMined = 4000
	if len(pool) > maxMined {
		pool = pool[:maxMined]
	}

	type feature struct {
		// literal feature when attr != ""; neighbor-label feature
		// otherwise.
		attr  string
		val   graph.Value
		label string
		dist  int
		out   bool
		count int
	}
	counts := map[string]*feature{}
	weight := 1
	var key []byte
	bump := func(f feature) {
		if ex := counts[string(key)]; ex != nil {
			ex.count += weight
			return
		}
		f.count = weight
		counts[string(key)] = &f
	}
	// neighbor keys a labeled neighbor at distance d, side 'o' or 'i'.
	neighbor := func(side byte, nd graph.NodeDist) {
		l := w.G.Label(nd.V)
		key = graph.AppendKeyString(append(key[:0], side, byte(nd.D)), l)
		bump(feature{label: l, dist: int(nd.D), out: side == 'o'})
	}
	for _, v := range pool {
		if !r.more() {
			break
		}
		weight = 1
		if w.Eval.InRep(v) {
			weight = 3 // lean the mined features toward desired entities
		}
		for _, c := range w.G.Tuple(v) {
			attr, val := w.G.Attrs.Name(c.Attr), w.G.Value(c)
			key = val.AppendKey(graph.AppendKeyString(append(key[:0], 'a'), attr))
			bump(feature{attr: attr, val: val})
		}
		for _, nd := range w.G.Ball(v, 2, graph.Forward) {
			if nd.D > 0 {
				neighbor('o', nd)
			}
		}
		for _, nd := range w.G.Ball(v, 2, graph.Backward) {
			if nd.D > 0 {
				neighbor('i', nd)
			}
		}
	}

	feats := make([]*feature, 0, len(counts))
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		feats = append(feats, counts[k])
	}
	sort.SliceStable(feats, func(i, j int) bool { return feats[i].count > feats[j].count })
	const maxFeatures = 10
	if len(feats) > maxFeatures {
		feats = feats[:maxFeatures]
	}

	// Assemble candidate queries: all feature subsets up to size 3.
	build := func(subset []*feature) *query.Query {
		q := query.New()
		f := q.AddNode(focusLabel)
		q.Focus = f
		for _, ft := range subset {
			if ft.attr != "" {
				q.Nodes[f].Literals = append(q.Nodes[f].Literals,
					query.Literal{Attr: ft.attr, Op: graph.EQ, Val: ft.val})
			} else {
				n := q.AddNode(ft.label)
				if ft.out {
					q.AddEdge(f, n, ft.dist)
				} else {
					q.AddEdge(n, f, ft.dist)
				}
			}
		}
		return q
	}

	best := rootAns
	// consider evaluates one candidate query; it reports false once the
	// run refuses the step.
	consider := func(subset ...*feature) bool {
		if !r.claim() {
			return false
		}
		ans, _ := w.evaluate(nil, build(subset), nil)
		ans.Ops, ans.Replaced = nil, true
		if ans.Closeness > best.Closeness {
			best = ans
			r.improve(best)
		}
		return true
	}
	// At most maxFeatures features make at most 175 subsets. A refused
	// claim stays refused, so each loop ends at its next condition.
	n := len(feats)
	for i := 0; i < n && consider(feats[i]); i++ {
		for j := i + 1; j < n && consider(feats[i], feats[j]); j++ {
			for k := j + 1; k < n && consider(feats[i], feats[j], feats[k]); k++ {
			}
		}
	}
	return best
}
