package exemplar_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wqe/internal/exemplar"
	"wqe/internal/graph"
)

// ineqNode is one node of an inequality test graph: membership of the
// left tuple (T = "l"), of the right tuple (U = "r"), and the values of A
// and B, nil when the node lacks the attribute.
type ineqNode struct {
	left, right bool
	a, b        *graph.Value
}

// ineqExemplar binds x to A on the left tuple and y to yAttr on the right
// one, under the given variable-to-variable constraints.
func ineqExemplar(yAttr string, cs []exemplar.Constraint) *exemplar.Exemplar {
	return &exemplar.Exemplar{
		Tuples: []exemplar.TuplePattern{
			{"T": exemplar.C(graph.S("l")), "A": exemplar.V("x")},
			{"U": exemplar.C(graph.S("r")), yAttr: exemplar.V("y")},
		},
		Constraints: cs,
	}
}

func ineqGraph(nodes []ineqNode) (*graph.Graph, error) {
	b := graph.NewBuilder()
	for _, n := range nodes {
		attrs := map[string]graph.Value{}
		if n.left {
			attrs["T"] = graph.S("l")
		}
		if n.right {
			attrs["U"] = graph.S("r")
		}
		if n.a != nil {
			attrs["A"] = *n.a
		}
		if n.b != nil {
			attrs["B"] = *n.b
		}
		b.AddNode("P", attrs)
	}
	return b.Build()
}

// pairwiseRep is rep(E, U) by the definition, over the nodes of U (in),
// and nil when it keeps no member of one of the tuples. Under x op y
// with op ∈ {<, ≤, >, ≥} every member of a group needs a partner other
// than itself in the other group, with a value satisfying the
// constraint pairwise. Under x = y every pair across the groups agrees,
// so all members share one value: the value class keeping the most
// members wins, ties going to the smallest value key (DESIGN.md §6).
// The constraints are enforced in Eval's schedule, since the class an
// equality keeps depends on what was removed before it: in order, each
// inequality by one removal from the x group and then one from the y
// group, until nothing changes.
func pairwiseRep(nodes []ineqNode, in []bool, yAttr string, cs []exemplar.Constraint) []graph.NodeID {
	val := func(i int, v string) *graph.Value {
		attr := nodes[i].a
		if v == "y" && yAttr == "B" {
			attr = nodes[i].b
		}
		return attr
	}
	inGroup := func(i int, v string) bool {
		if v == "x" {
			return nodes[i].left && nodes[i].a != nil
		}
		return nodes[i].right && val(i, "y") != nil
	}
	active := slices.Clone(in)
	for i := range nodes {
		active[i] = active[i] && (inGroup(i, "x") || inGroup(i, "y"))
	}
	partnered := func(i int, from, to string, op graph.Op) bool {
		for j := range nodes {
			if j != i && active[j] && inGroup(j, to) && op.Holds(*val(i, from), *val(j, to)) {
				return true
			}
		}
		return false
	}
	drop := func(out []int) bool {
		for _, i := range out {
			active[i] = false
		}
		return len(out) > 0
	}
	unpartnered := func(from, to string, op graph.Op) (out []int) {
		for i := range nodes {
			if active[i] && inGroup(i, from) && !partnered(i, from, to, op) {
				out = append(out, i)
			}
		}
		return out
	}
	outsideBestClass := func(c exemplar.Constraint) (out []int) {
		class := map[int]string{} // by member; "" for a member whose own two values differ
		count := map[string]int{}
		for i := range nodes {
			l, r := inGroup(i, c.Left), inGroup(i, c.Right)
			if !active[i] || !l && !r {
				continue
			}
			v := val(i, c.Right)
			if l {
				v = val(i, c.Left)
			}
			if l && r && !v.Equal(*val(i, c.Right)) {
				class[i] = ""
				continue
			}
			canon, _ := v.Canonical() // the values are admitted
			class[i] = string(canon.AppendKey(nil))
			count[class[i]]++
		}
		best := ""
		for key, n := range count {
			if n > count[best] || n == count[best] && key < best {
				best = key
			}
		}
		for i, key := range class {
			if key != best || key == "" {
				out = append(out, i)
			}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cs {
			if c.Op == graph.EQ {
				changed = drop(outsideBestClass(c)) || changed
				continue
			}
			changed = drop(unpartnered(c.Left, c.Right, c.Op)) || changed
			changed = drop(unpartnered(c.Right, c.Left, c.Op.Flip())) || changed
		}
	}
	var rep []graph.NodeID
	var left, right bool
	for i := range nodes {
		if active[i] {
			rep = append(rep, graph.NodeID(i))
			left = left || inGroup(i, "x")
			right = right || inGroup(i, "y")
		}
	}
	if !left || !right {
		return nil
	}
	return rep
}

// every returns n trues: the whole node set.
func every(n int) []bool {
	in := make([]bool, n)
	for i := range in {
		in[i] = true
	}
	return in
}

// TestInequalityMatchesPairwise holds Eval and OracleEval, which find a
// partner through a few witnesses per group, to the pairwise definition
// of rep(E, V) under x op y and x = y: on crafted cases where one total
// order over the witnesses fails (a number before a string), and on
// small random graphs of the values the graph's door admits — numbers,
// −0 (stored as 0), ±MaxFloat64, subnormals and strings — each built in
// three node orders. RepNodes, and SatisfiedBy on random node subsets,
// must agree with the brute force. The graphs NaN once made disagree
// are refused, and so are those holding ±Inf.
func TestInequalityMatchesPairwise(t *testing.T) {
	v := func(x graph.Value) *graph.Value { return &x }
	l := func(a graph.Value) ineqNode { return ineqNode{left: true, a: v(a)} }
	r := func(a graph.Value) ineqNode { return ineqNode{right: true, a: v(a)} }
	cons := func(op graph.Op) []exemplar.Constraint {
		return []exemplar.Constraint{{Left: "x", Op: op, IsVar: true, Right: "y"}}
	}
	check := func(t *testing.T, name string, nodes []ineqNode, yAttr string, cs []exemplar.Constraint, rng *rand.Rand) {
		t.Helper()
		g, err := ineqGraph(nodes)
		if err != nil {
			t.Fatal(err)
		}
		e := ineqExemplar(yAttr, cs)
		ev, err := exemplar.NewEval(g, e, exemplar.Options{Theta: 1, Lambda: 1})
		if err != nil {
			t.Fatal(err)
		}
		or, err := exemplar.NewOracleEval(g, e, exemplar.Options{Theta: 1, Lambda: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := pairwiseRep(nodes, every(len(nodes)), yAttr, cs)
		if got := ev.RepNodes(); !slices.Equal(got, want) {
			t.Fatalf("%s: Eval rep %v, pairwise %v", name, got, want)
		}
		if got := or.RepNodes(); !slices.Equal(got, want) {
			t.Fatalf("%s: OracleEval rep %v, pairwise %v", name, got, want)
		}
		for range 4 {
			in := make([]bool, len(nodes))
			var set []graph.NodeID
			for i := range in {
				if in[i] = rng.Intn(3) != 0; in[i] {
					set = append(set, graph.NodeID(i))
				}
			}
			want := pairwiseRep(nodes, in, yAttr, cs) != nil
			if ev.SatisfiedBy(set) != want || or.SatisfiedBy(set) != want {
				t.Fatalf("%s: SatisfiedBy(%v) Eval %v, OracleEval %v, pairwise %v",
					name, set, ev.SatisfiedBy(set), or.SatisfiedBy(set), want)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		nodes []ineqNode
		cs    []exemplar.Constraint
	}{
		// Compare puts the number 1 before "a", but only "a" can partner "b".
		{"number before string", []ineqNode{l(graph.S("b")), r(graph.N(1)), r(graph.S("a"))}, cons(graph.GT)},
		{"string after number", []ineqNode{l(graph.N(0)), r(graph.S("a")), r(graph.N(1))}, cons(graph.LT)},
		{"-0 equals 0", []ineqNode{l(graph.N(math.Copysign(0, -1))), r(graph.N(0)), r(graph.N(1))}, cons(graph.EQ)},
	} {
		check(t, tc.name, tc.nodes, "A", tc.cs, rng)
		slices.Reverse(tc.nodes)
		check(t, tc.name+" reversed", tc.nodes, "A", tc.cs, rng)
	}

	// NaN, which Compare called equal to every number and Equal to none,
	// is refused: with it x = y once kept neither node of the first two
	// graphs, where the pairwise reading keeps both. ±Inf is refused too.
	for _, bad := range []graph.Value{graph.N(math.NaN()), graph.N(math.Inf(1)), graph.N(math.Inf(-1))} {
		for _, nodes := range [][]ineqNode{
			{l(bad), r(bad)},
			{l(bad), r(graph.N(5))},
			{l(graph.N(7)), r(bad), r(graph.N(5))},
			{l(graph.N(-1)), r(graph.N(5)), r(bad)},
			{l(bad), r(graph.N(5)), l(graph.N(1))},
		} {
			if _, err := ineqGraph(nodes); err == nil || !strings.Contains(err.Error(), bad.String()) {
				t.Errorf("%v: a %v cell built, %v", nodes, bad, err)
			}
		}
	}

	pool := []graph.Value{
		graph.N(math.MaxFloat64), graph.N(-math.MaxFloat64), graph.N(math.SmallestNonzeroFloat64),
		graph.N(math.Copysign(0, -1)), graph.N(0), graph.N(1), graph.N(2),
		graph.S("a"), graph.S("b"), graph.S(""),
	}
	ops := []graph.Op{graph.LT, graph.LE, graph.GT, graph.GE, graph.EQ}
	draw := func() *graph.Value {
		if rng.Intn(8) == 0 {
			return nil
		}
		return v(pool[rng.Intn(len(pool))])
	}
	nonEmpty := 0
	for trial := 0; trial < 1500; trial++ {
		nodes := make([]ineqNode, 2+rng.Intn(6))
		for i := range nodes {
			nodes[i] = ineqNode{left: rng.Intn(3) != 0, right: rng.Intn(3) != 0, a: draw(), b: draw()}
		}
		yAttr := []string{"A", "B"}[rng.Intn(2)]
		var cs []exemplar.Constraint
		for range 1 + rng.Intn(2) {
			c := exemplar.Constraint{Left: "x", Op: ops[rng.Intn(len(ops))], IsVar: true, Right: "y"}
			if rng.Intn(2) == 0 {
				c.Left, c.Right = c.Right, c.Left
			}
			cs = append(cs, c)
		}
		for p := 0; p < 3; p++ {
			perm := slices.Clone(nodes)
			switch p {
			case 1:
				slices.Reverse(perm)
			case 2:
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			}
			if pairwiseRep(perm, every(len(perm)), yAttr, cs) != nil {
				nonEmpty++
			}
			check(t, "random", perm, yAttr, cs, rng)
		}
	}
	if nonEmpty < 500 {
		t.Errorf("%d of 4500 random graphs have a nonempty rep, want at least 500", nonEmpty)
	}
}
