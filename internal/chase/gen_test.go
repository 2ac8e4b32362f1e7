package chase

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"wqe/internal/graph"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// The cancel-out rule of §4 once had two string renderings: the one
// ops.Sequence.Canonical read (stringSeqTarget), and the one the chase's
// generators, GenRandom and ApxWhyM's cover read (stringOpTarget). Both
// are kept here verbatim, apart from their names and the package
// qualifiers, as the oracle ops.Target is held to.

// stringSeqTarget is the former ops.Op.target.
func stringSeqTarget(o ops.Op, seq int) string {
	switch o.Kind {
	case ops.Empty:
		return fmt.Sprintf("empty:%d", seq)
	case ops.RmL, ops.AddL:
		return fmt.Sprintf("L:%d:%s", o.U, o.Lit.Attr)
	case ops.RxL, ops.RfL:
		return fmt.Sprintf("L:%d:%s", o.U, o.Lit.Attr)
	case ops.RmE, ops.RxE, ops.RfE:
		return fmt.Sprintf("E:%d:%d", o.U, o.U2)
	case ops.AddE:
		if o.NewNode != nil {
			return fmt.Sprintf("E:new:%d", seq)
		}
		return fmt.Sprintf("E:%d:%d", o.U, o.U2)
	}
	return "?"
}

// stringCanonical is the former ops.Sequence.Canonical.
func stringCanonical(s ops.Sequence) bool {
	kinds := map[string]ops.Kind{}
	for i, o := range s {
		if o.Kind == ops.Empty {
			continue
		}
		t := stringSeqTarget(o, i)
		if _, seen := kinds[t]; seen {
			return false
		}
		kinds[t] = o.Kind
	}
	return true
}

// stringOpTarget is the former chase opTarget, with litTarget,
// edgeTarget and appendEdgeTarget below it.
func stringOpTarget(o ops.Op) (key string, ok bool) {
	switch o.Kind {
	case ops.RmL, ops.AddL, ops.RxL, ops.RfL:
		return stringLitTarget(o.U, o.Lit.Attr), true
	case ops.RmE, ops.RxE, ops.RfE:
		return stringEdgeTarget(o.U, o.U2), true
	case ops.AddE:
		if o.NewNode == nil {
			return stringEdgeTarget(o.U, o.U2), true
		}
	}
	return "", false
}

func stringLitTarget(u query.NodeID, attr string) string {
	return "L:" + strconv.Itoa(int(u)) + ":" + attr
}

func stringEdgeTarget(a, b query.NodeID) string {
	return string(stringAppendEdgeTarget(nil, a, b))
}

func stringAppendEdgeTarget(dst []byte, a, b query.NodeID) []byte {
	dst = strconv.AppendInt(append(dst, "E:"...), int64(a), 10)
	return strconv.AppendInt(append(dst, ':'), int64(b), 10)
}

// targetPool returns operators of all nine kinds over a few nodes, node
// pairs in both directions and attributes, one of which contains ':',
// plus Empty and AddE to a fresh node.
func targetPool() []ops.Op {
	var pool []ops.Op
	for _, u := range []query.NodeID{0, 1, 12} {
		for _, attr := range []string{"a", "2:a", "price"} {
			l := query.Literal{Attr: attr, Op: graph.GE, Val: graph.N(5)}
			l2 := query.Literal{Attr: attr, Op: graph.GE, Val: graph.N(6)}
			pool = append(pool,
				ops.Op{Kind: ops.RmL, U: u, Lit: l},
				ops.Op{Kind: ops.AddL, U: u, Lit: l2},
				ops.Op{Kind: ops.RxL, U: u, Lit: l2, NewLit: l},
				ops.Op{Kind: ops.RfL, U: u, Lit: l, NewLit: l2})
		}
	}
	for _, e := range [][2]query.NodeID{{0, 1}, {1, 0}, {1, 2}, {12, 1}} {
		pool = append(pool,
			ops.Op{Kind: ops.RmE, U: e[0], U2: e[1], Bound: 2},
			ops.Op{Kind: ops.RxE, U: e[0], U2: e[1], Bound: 2, NewBound: 3},
			ops.Op{Kind: ops.RfE, U: e[0], U2: e[1], Bound: 2, NewBound: 1},
			ops.Op{Kind: ops.AddE, U: e[0], U2: e[1], Bound: 1})
	}
	return append(pool,
		ops.Op{Kind: ops.AddE, U: 1, Bound: 1, NewNode: &ops.NewNodeSpec{Label: "B"}},
		ops.Op{Kind: ops.AddE, U: 1, Bound: 1, NewNode: &ops.NewNodeSpec{Label: "B"}},
		ops.Op{Kind: ops.Empty},
		ops.Op{Kind: ops.Empty})
}

// TestOpTarget pins the one cancel-out rule the generators, GenRandom,
// ApxWhyM and Sequence.Canonical share: a literal operator occupies its
// node's attribute, an edge operator its edge, and Empty and an AddE to
// a fresh node nothing. Over the pool, two operators share an ops.Target
// exactly when both former renderings gave them equal strings.
func TestOpTarget(t *testing.T) {
	lit := query.Literal{Attr: "price", Op: graph.GE, Val: graph.N(5)}
	for _, tc := range []struct {
		op   ops.Op
		want string
	}{
		{ops.Op{Kind: ops.RmL, U: 2, Lit: lit}, "L:2:price"},
		{ops.Op{Kind: ops.AddL, U: 0, Lit: lit}, "L:0:price"},
		{ops.Op{Kind: ops.RxL, U: 1, Lit: lit}, "L:1:price"},
		{ops.Op{Kind: ops.RfL, U: 1, Lit: lit}, "L:1:price"},
		{ops.Op{Kind: ops.RmE, U: 0, U2: 3}, "E:0:3"},
		{ops.Op{Kind: ops.RxE, U: 3, U2: 0}, "E:3:0"},
		{ops.Op{Kind: ops.RfE, U: 1, U2: 2}, "E:1:2"},
		{ops.Op{Kind: ops.AddE, U: 1, U2: 2}, "E:1:2"},
		{ops.Op{Kind: ops.AddE, U: 1, U2: 4, NewNode: &ops.NewNodeSpec{Label: "B"}}, ""},
		{ops.Op{Kind: ops.Empty}, ""},
	} {
		key, ok := stringOpTarget(tc.op)
		if key != tc.want || ok != (tc.want != "") {
			t.Errorf("stringOpTarget(%v) = %q, %v; want %q", tc.op, key, ok, tc.want)
		}
		if _, ok2 := tc.op.Target(); ok2 != ok {
			t.Errorf("%v: Target reports ok=%v, the string rendering %v", tc.op, ok2, ok)
		}
	}

	pool := targetPool()
	shared := 0
	for i, a := range pool {
		ta, oka := a.Target()
		for j, b := range pool {
			if i == j {
				continue
			}
			tb, okb := b.Target()
			share := oka && okb && ta == tb
			ka, _ := stringOpTarget(a)
			kb, _ := stringOpTarget(b)
			if was := oka && okb && ka == kb; share != was {
				t.Errorf("%v, %v: share a Target %v, the chase rendering says %v", a, b, share, was)
			}
			if was := stringSeqTarget(a, i) == stringSeqTarget(b, j); share != was {
				t.Errorf("%v, %v: share a Target %v, the sequence rendering says %v", a, b, share, was)
			}
			if share {
				shared++
			}
		}
	}
	if shared < 100 {
		t.Errorf("only %d ordered pairs share a target", shared)
	}

	seq := ops.Sequence{
		{Kind: ops.AddL, U: 0, Lit: lit},
		{Kind: ops.AddE, U: 0, U2: 1, NewNode: &ops.NewNodeSpec{Label: "B"}},
		{Kind: ops.RmE, U: 0, U2: 1},
	}
	if got := seq.Targets(); len(got) != 2 || !got.Has(ops.LitTarget(0, "price")) || !got.Has(ops.EdgeTarget(0, 1)) {
		t.Errorf("Targets = %v, want the literal and the removed edge only", got)
	}
}

// TestCanonicalMatchesStringRendering: on random sequences drawn from
// the pool with repetition, Canonical agrees with the former
// string-keyed Canonical.
func TestCanonicalMatchesStringRendering(t *testing.T) {
	pool := targetPool()
	rng := rand.New(rand.NewSource(3))
	count := map[bool]int{}
	for trial := 0; trial < 5000; trial++ {
		seq := make(ops.Sequence, rng.Intn(6))
		for i := range seq {
			seq[i] = pool[rng.Intn(len(pool))]
		}
		got, want := seq.Canonical(), stringCanonical(seq)
		if got != want {
			t.Fatalf("Canonical(%v) = %v, the string rendering %v", seq, got, want)
		}
		count[got]++
	}
	if count[true] < 500 || count[false] < 500 {
		t.Errorf("canonical %d, not %d: want plenty of both", count[true], count[false])
	}
}
