package query

import (
	"math"
	"math/rand"
	"testing"

	"wqe/internal/graph"
)

// checkValues mixes ordinary values with the ones a graph stores
// canonical: both zeros, a Number carrying a Str; and MaxFloat64.
func checkValues() []graph.Value {
	return []graph.Value{
		graph.N(-2), graph.N(math.Copysign(0, -1)), graph.N(0), graph.N(1), graph.N(2.5), graph.N(7),
		graph.N(math.MaxFloat64),
		graph.S(""), graph.S("1"), graph.S("b"), graph.S("d"), graph.S("NaN"),
		{Kind: graph.Number, Num: 1, Str: "one"},
	}
}

// mustBuild returns gb's graph; the tests' graphs hold only values the
// door admits.
func mustBuild(gb *graph.Builder) *graph.Graph {
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// checkGraph gives every node up to four attributes: "num" and "str" of
// one ordinary kind each, "mix" of both, "odd" drawn from checkValues.
func checkGraph(rng *rand.Rand, n int) *graph.Graph {
	odd := checkValues()
	gb := graph.NewBuilder()
	for i := 0; i < n; i++ {
		attrs := map[string]graph.Value{}
		if rng.Intn(5) > 0 {
			attrs["num"] = graph.N(float64(2 * rng.Intn(8)))
		}
		if rng.Intn(5) > 0 {
			attrs["str"] = graph.S(string(rune('b' + 2*rng.Intn(5))))
		}
		if rng.Intn(3) > 0 {
			attrs["mix"] = []graph.Value{graph.N(1), graph.N(4), graph.S("1"), graph.S("c"), graph.N(-3)}[rng.Intn(5)]
		}
		if rng.Intn(3) > 0 {
			attrs["odd"] = odd[rng.Intn(len(odd))]
		}
		gb.AddNode([]string{"A", "B", "C"}[rng.Intn(3)], attrs)
	}
	return mustBuild(gb)
}

// checkConstants are the literal constants tried on every attribute:
// values in the domains, between them, below and above all of them, of
// the other kind, and those Query.Validate refuses, NaN, ±Inf and a value
// of neither kind, on which the compiled predicate still agrees with Sat.
func checkConstants() []graph.Value {
	return append(checkValues(),
		graph.N(-100), graph.N(100), graph.N(3), graph.N(4), graph.N(14), graph.N(math.Inf(-1)), graph.N(math.Inf(1)),
		graph.S("a"), graph.S("c"), graph.S("zz"), graph.S("4"),
		graph.N(math.NaN()), graph.Value{Kind: 7, Str: "b"},
	)
}

var allOps = []graph.Op{graph.EQ, graph.LT, graph.LE, graph.GT, graph.GE}

// TestCandidateAgreesWithIsCandidate: the compiled predicate — labels as
// ids, literals as code intervals — decides every node as the reference
// path through Literal.Sat does, for every operator and constant, alone
// and in conjunction.
func TestCandidateAgreesWithIsCandidate(t *testing.T) {
	consts := checkConstants()
	attrs := []string{"num", "str", "mix", "odd", "absent"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := checkGraph(rng, 250)
		var lits []Literal
		for _, attr := range attrs {
			for _, op := range allOps {
				for _, c := range consts {
					lits = append(lits, Literal{Attr: attr, Op: op, Val: c})
				}
			}
		}
		agree := func(q *Query) (passed int) {
			t.Helper()
			check := compileNode(g, q.Nodes[0])
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				got, want := check.Candidate(g, v), q.IsCandidate(g, 0, v)
				if got != want {
					t.Fatalf("seed %d, %s: node %d %v: Candidate = %v, IsCandidate = %v", seed, q, v, g.Tuple(v), got, want)
				}
				if got {
					passed++
				}
			}
			return passed
		}
		passed := 0
		for _, l := range lits {
			q := New()
			q.AddNode([]string{"", "A", "Z"}[rng.Intn(3)], l)
			passed += agree(q)
			alone := compileNode(g, Node{Literals: []Literal{l}})
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if got, want := alone.Candidate(g, v), l.Sat(g, v); got != want {
					t.Fatalf("seed %d, %s alone: node %d %v: Candidate = %v, Sat = %v", seed, l, v, g.Tuple(v), got, want)
				}
			}
		}
		for i := 0; i < 400; i++ {
			q := New()
			q.AddNode("", lits[rng.Intn(len(lits))], lits[rng.Intn(len(lits))], lits[rng.Intn(len(lits))])
			passed += agree(q)
		}
		if passed == 0 {
			t.Errorf("seed %d: no node passed any predicate", seed)
		}
	}
}

// compileNode compiles the one-node pattern n against g and returns its
// candidate predicate.
func compileNode(g *graph.Graph, n Node) NodeCheck {
	var c Compiled
	c.Compile(g, &Query{Nodes: []Node{n}})
	return c.Nodes[0].Check
}
