package chase

import (
	"testing"

	"wqe/internal/graph"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// TestOpTarget pins the one cancel-out rule the generators, GenRandom
// and ApxWhyM share: a literal operator occupies its node's attribute,
// an edge operator its edge, and an AddE to a fresh node nothing.
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
	} {
		key, ok := opTarget(tc.op)
		if key != tc.want || ok != (tc.want != "") {
			t.Errorf("opTarget(%v) = %q, %v; want %q", tc.op, key, ok, tc.want)
		}
	}
	seq := ops.Sequence{
		{Kind: ops.AddL, U: 0, Lit: lit},
		{Kind: ops.AddE, U: 0, U2: 1, NewNode: &ops.NewNodeSpec{Label: "B"}},
		{Kind: ops.RmE, U: 0, U2: 1},
	}
	if got := opTargets(seq); len(got) != 2 || !got["L:0:price"] || !got["E:0:1"] {
		t.Errorf("opTargets = %v, want the literal and the removed edge only", got)
	}
}
