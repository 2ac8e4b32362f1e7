package exemplar_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
)

// TestEvalMatchesOracle holds Eval, whose matches are ascending columns,
// to OracleEval, the map-based evaluator it replaced, on the four dataset
// kinds at θ = 1 and θ < 1: every node's InRep, Matches and Cl, RepNodes,
// and on empty, full, random, shuffled, repeating and answer-shaped node
// sets Closeness, ClPlus, ClStar and SatisfiedBy, floats by bit pattern.
func TestEvalMatchesOracle(t *testing.T) {
	var sat, unsat int
	for _, kind := range datagen.AllDatasets() {
		g, err := datagen.Generate(kind, 600, 11)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for ei, e := range oracleExemplars(t, g, rng) {
			for _, theta := range []float64{1, 0.6} {
				opts := exemplar.Options{Theta: theta, Lambda: 1}
				ev, err := exemplar.NewEval(g, e, opts)
				if err != nil {
					t.Fatal(err)
				}
				or, err := exemplar.NewOracleEval(g, e, opts)
				if err != nil {
					t.Fatal(err)
				}
				for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
					if ev.InRep(v) != or.InRep(v) || ev.Matches(v) != or.Matches(v) ||
						math.Float64bits(ev.Cl(v)) != math.Float64bits(or.Cl(v)) {
						t.Fatalf("%s exemplar %d θ=%v node %d: InRep/Matches/Cl %v/%v/%v, oracle %v/%v/%v", kind, ei, theta, v,
							ev.InRep(v), ev.Matches(v), ev.Cl(v), or.InRep(v), or.Matches(v), or.Cl(v))
					}
				}
				rep := ev.RepNodes()
				if !slices.Equal(rep, or.RepNodes()) || ev.Nontrivial() != or.Nontrivial() {
					t.Fatalf("%s exemplar %d θ=%v: rep %v, oracle %v", kind, ei, theta, rep, or.RepNodes())
				}
				for si, set := range oracleNodeSets(g, rep, rng) {
					n := len(set) + 7
					if ev.SatisfiedBy(set) != or.SatisfiedBy(set) ||
						math.Float64bits(ev.Closeness(set, n)) != math.Float64bits(or.Closeness(set, n)) ||
						math.Float64bits(ev.ClPlus(set, n)) != math.Float64bits(or.ClPlus(set, n)) ||
						math.Float64bits(ev.ClStar(set)) != math.Float64bits(or.ClStar(set)) {
						t.Fatalf("%s exemplar %d θ=%v set %d (%d nodes): sat/cl/cl+/cl* %v/%v/%v/%v, oracle %v/%v/%v/%v",
							kind, ei, theta, si, len(set),
							ev.SatisfiedBy(set), ev.Closeness(set, n), ev.ClPlus(set, n), ev.ClStar(set),
							or.SatisfiedBy(set), or.Closeness(set, n), or.ClPlus(set, n), or.ClStar(set))
					}
					if ev.SatisfiedBy(set) {
						sat++
					} else {
						unsat++
					}
				}
			}
		}
	}
	if sat < 20 || unsat < 20 {
		t.Errorf("%d satisfying and %d unsatisfying node sets compared, want at least 20 of each", sat, unsat)
	}
}

// oracleExemplars draws the exemplars a dataset graph is tested under:
// entity rows of constants, and rows binding variables x and y to an
// attribute A some node carries, beside a constant of another of its
// attributes, under x = y, x < y, and x ≥ y with a constant bound on x.
func oracleExemplars(t *testing.T, g *graph.Graph, rng *rand.Rand) []*exemplar.Exemplar {
	t.Helper()
	n := g.NumNodes()
	ents := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	out := []*exemplar.Exemplar{exemplar.FromEntities(g, ents, nil)}
	for len(out) < 7 {
		v := graph.NodeID(rng.Intn(n))
		tuple := g.Tuple(v)
		if len(tuple) < 2 {
			continue
		}
		i := rng.Intn(len(tuple))
		a, b := tuple[i], tuple[(i+1)%len(tuple)]
		attr := g.Attrs.Name(a.Attr)
		rows := []exemplar.TuplePattern{
			{attr: exemplar.V("x"), g.Attrs.Name(b.Attr): exemplar.C(g.Value(b))},
			{attr: exemplar.V("y"), "no-such-attr": exemplar.W()},
		}
		for _, cs := range [][]exemplar.Constraint{
			{{Left: "x", Op: graph.EQ, IsVar: true, Right: "y"}},
			{{Left: "x", Op: graph.LT, IsVar: true, Right: "y"}},
			{{Left: "x", Op: graph.GE, IsVar: true, Right: "y"}, {Left: "x", Op: graph.LE, Val: g.Value(a)}},
		} {
			out = append(out, &exemplar.Exemplar{Tuples: rows, Constraints: cs})
		}
	}
	return out
}

// oracleNodeSets returns the node sets compared: empty, every node, a
// random ascending subset, the same shuffled and with repeats, and two
// answer-shaped sets — ascending subsets of one label's nodes, one of
// them holding all of that label's rep nodes.
func oracleNodeSets(g *graph.Graph, rep []graph.NodeID, rng *rand.Rand) [][]graph.NodeID {
	all := g.NodesByLabel("")
	var random []graph.NodeID
	for _, v := range all {
		if rng.Intn(3) == 0 {
			random = append(random, v)
		}
	}
	shuffled := slices.Clone(random)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	repeats := append(slices.Clone(shuffled), random[:len(random)/2]...)

	label := g.Label(graph.NodeID(rng.Intn(g.NumNodes())))
	if len(rep) > 0 {
		label = g.Label(rep[rng.Intn(len(rep))])
	}
	var some, withRep []graph.NodeID
	for _, v := range g.NodesByLabel(label) {
		_, inRep := slices.BinarySearch(rep, v)
		keep := rng.Intn(2) == 0
		if keep {
			some = append(some, v)
		}
		if inRep || keep {
			withRep = append(withRep, v)
		}
	}
	return [][]graph.NodeID{nil, all, random, shuffled, repeats, some, withRep}
}
