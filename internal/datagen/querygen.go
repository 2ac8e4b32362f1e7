package datagen

import (
	"math/rand"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// QuerySpec parameterizes ground-truth query generation, mirroring the
// paper's benchmark instantiation: templates of a given shape and edge
// count, up to MaxPredicates search predicates per node, and occasional
// bound-2 path edges.
type QuerySpec struct {
	Shape         query.Topology // TopoStar, TopoTree (chains/trees) or TopoCyclic
	Edges         int            // |E_Q| ≥ 1 (cyclic needs ≥ 3)
	MaxPredicates int            // per node, the benchmarks use ≤ 3
	PathEdgeProb  float64        // probability an edge gets bound 2
	FocusAtSeed   bool           // pin the focus to the walk seed instead of a random node
	FocusLabel    string         // require the focus to carry this label ("" = any)
	// MinFocusPredicates forces at least this many predicates on the
	// focus node (the paper's benchmark templates always constrain the
	// focus). Capped by the witness's attribute count.
	MinFocusPredicates int
}

// GenQuery samples a connected subgraph of g matching the spec and
// abstracts it into a pattern query whose witness images guarantee a
// nonempty isomorphic answer (the paper instantiates templates "such
// that [each query] has isomorphic answer in G"). It returns the query,
// the witness image nodes (parallel to query nodes), and ok=false when
// no suitable subgraph was found.
func GenQuery(g *graph.Graph, spec QuerySpec, rng *rand.Rand) (*query.Query, []graph.NodeID, bool) {
	if spec.Edges < 1 {
		spec.Edges = 1
	}
	wantNodes := spec.Edges + 1
	treeEdges := spec.Edges
	if spec.Shape == query.TopoCyclic {
		if spec.Edges < 3 {
			spec.Edges = 3
		}
		wantNodes = spec.Edges // a cycle closes over existing nodes
		treeEdges = spec.Edges - 1
	}

	for attempt := 0; attempt < 60; attempt++ {
		images, patEdges, ok := growSubgraph(g, spec, rng, wantNodes, treeEdges)
		if !ok {
			continue
		}
		q := abstract(g, spec, rng, images, patEdges)
		if q != nil {
			return q, images, true
		}
	}
	return nil, nil, false
}

// patEdge is one sampled pattern edge: indices into the image slice and
// the direction the underlying graph edge has.
type patEdge struct {
	from, to int
}

func growSubgraph(g *graph.Graph, spec QuerySpec, rng *rand.Rand, wantNodes, treeEdges int) ([]graph.NodeID, []patEdge, bool) {
	n := g.NumNodes()
	if n == 0 {
		return nil, nil, false
	}
	seed := graph.NodeID(rng.Intn(n))
	if g.Degree(seed) == 0 {
		return nil, nil, false
	}
	images := []graph.NodeID{seed}
	used := map[graph.NodeID]bool{seed: true}
	var edges []patEdge

	for len(edges) < treeEdges {
		// Pick the expansion anchor per the desired shape.
		var anchorIdx int
		switch spec.Shape {
		case query.TopoStar:
			anchorIdx = 0
		default:
			anchorIdx = rng.Intn(len(images))
		}
		anchor := images[anchorIdx]
		out, in := g.Out(anchor), g.In(anchor)
		total := len(out) + len(in)
		if total == 0 {
			return nil, nil, false
		}
		found := false
		for tries := 0; tries < 12 && !found; tries++ {
			pick := rng.Intn(total)
			var nb graph.NodeID
			outDir := pick < len(out)
			if outDir {
				nb = out[pick].To
			} else {
				nb = in[pick-len(out)].To
			}
			if used[nb] {
				continue
			}
			used[nb] = true
			images = append(images, nb)
			if outDir {
				edges = append(edges, patEdge{from: anchorIdx, to: len(images) - 1})
			} else {
				edges = append(edges, patEdge{from: len(images) - 1, to: anchorIdx})
			}
			found = true
		}
		if !found {
			return nil, nil, false
		}
		if len(images) == wantNodes && len(edges) < treeEdges {
			return nil, nil, false
		}
	}

	if spec.Shape == query.TopoCyclic {
		// Close a cycle: find a real graph edge between two images not
		// yet connected in the pattern.
		adj := map[[2]int]bool{}
		for _, e := range edges {
			adj[[2]int{e.from, e.to}] = true
			adj[[2]int{e.to, e.from}] = true
		}
		closed := false
	cycle:
		for i := range images {
			for _, ge := range g.Out(images[i]) {
				for j := range images {
					if i == j || adj[[2]int{i, j}] {
						continue
					}
					if ge.To == images[j] {
						edges = append(edges, patEdge{from: i, to: j})
						closed = true
						break cycle
					}
				}
			}
		}
		if !closed {
			return nil, nil, false
		}
	}
	return images, edges, true
}

// abstract turns images into a pattern query: labels from the images,
// predicates anchored at the images' own attribute values, bounds
// mostly 1.
func abstract(g *graph.Graph, spec QuerySpec, rng *rand.Rand, images []graph.NodeID, edges []patEdge) *query.Query {
	q := query.New()
	for _, img := range images {
		q.AddNode(g.Label(img))
	}

	// Pick the focus before generating predicates: the focus honors
	// both the label requirement and the minimum predicate count.
	switch {
	case spec.FocusLabel != "":
		q.Focus = query.NodeID(-1)
		for u, n := range q.Nodes {
			if n.Label == spec.FocusLabel {
				q.Focus = query.NodeID(u)
				break
			}
		}
		if q.Focus < 0 {
			return nil
		}
	case spec.FocusAtSeed:
		q.Focus = 0
	default:
		q.Focus = query.NodeID(rng.Intn(len(q.Nodes)))
	}

	for ui, img := range images {
		u := query.NodeID(ui)
		tuple := g.Tuple(img)
		if spec.MaxPredicates <= 0 || len(tuple) == 0 {
			continue
		}
		nPred := rng.Intn(spec.MaxPredicates + 1)
		if u == q.Focus && nPred < spec.MinFocusPredicates {
			nPred = spec.MinFocusPredicates
		}
		perm := rng.Perm(len(tuple))
		for _, ti := range perm {
			if nPred == 0 {
				break
			}
			cell := tuple[ti]
			attr, val := g.Attrs.Name(cell.Attr), g.Value(cell)
			if q.FindLiteral(u, attr, graph.EQ) >= 0 ||
				q.FindLiteral(u, attr, graph.GE) >= 0 ||
				q.FindLiteral(u, attr, graph.LE) >= 0 {
				continue
			}
			// Near-unique string attributes (names, ids) make degenerate
			// equality predicates; realistic benchmark queries select on
			// categorical or numeric attributes.
			if val.Kind == graph.String {
				if dom := g.ActiveDomain(attr); len(dom.Values) > 100 {
					continue
				}
			}
			var lit query.Literal
			if val.Kind == graph.Number {
				if rng.Intn(2) == 0 {
					lit = query.Literal{Attr: attr, Op: graph.GE, Val: val}
				} else {
					lit = query.Literal{Attr: attr, Op: graph.LE, Val: val}
				}
			} else {
				lit = query.Literal{Attr: attr, Op: graph.EQ, Val: val}
			}
			q.Nodes[u].Literals = append(q.Nodes[u].Literals, lit)
			nPred--
		}
	}

	// The focus must reach its predicate quota; witnesses whose focus
	// lacks usable attributes are rejected so GenQuery retries.
	if len(q.Nodes[q.Focus].Literals) < spec.MinFocusPredicates {
		return nil
	}

	for _, e := range edges {
		bound := 1
		if rng.Float64() < spec.PathEdgeProb {
			bound = 2
		}
		q.AddEdge(query.NodeID(e.from), query.NodeID(e.to), bound)
	}
	if err := q.Validate(); err != nil {
		return nil
	}
	return q
}
