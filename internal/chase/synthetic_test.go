package chase_test

import (
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/graph"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// genInstances builds n Why-question instances over a dataset.
func genInstances(t *testing.T, dataset string, nodes, count int, seed int64) (*graph.Graph, []*datagen.WhyInstance) {
	t.Helper()
	return genInstancesSpec(t, dataset, nodes, count, seed, whySpec)
}

func jaccard(a, b []graph.NodeID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := map[graph.NodeID]bool{}
	for _, v := range a {
		inA[v] = true
	}
	inter := 0
	for _, v := range b {
		if inA[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TestSyntheticEndToEnd runs AnsW and AnsHeu over generated
// Why-questions on every dataset and checks the algorithms improve on
// the disturbed query's answers.
func TestSyntheticEndToEnd(t *testing.T) {
	for _, ds := range datagen.AllDatasets() {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			g, instances := genInstances(t, ds, 3000, 5, 42)
			var base, ansW, ansHeu float64
			for _, inst := range instances {
				cfg := chase.DefaultConfig()
				cfg.MaxSteps = 1500
				w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
				if err != nil {
					t.Fatalf("NewWhy: %v", err)
				}
				a := w.AnsW()
				if a.Cost > cfg.Budget+1e-9 {
					t.Errorf("AnsW exceeded budget: %v", a.Cost)
				}
				base += jaccard(inst.Answer, inst.AnswerStar)
				ansW += jaccard(a.Matches, inst.AnswerStar)

				w2, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
				if err != nil {
					t.Fatalf("NewWhy: %v", err)
				}
				h := w2.AnsHeu(3)
				ansHeu += jaccard(h.Matches, inst.AnswerStar)
			}
			n := float64(len(instances))
			t.Logf("%s: relative closeness (Jaccard vs Q*): disturbed=%.3f AnsW=%.3f AnsHeu=%.3f",
				ds, base/n, ansW/n, ansHeu/n)
			if ansW < base-1e-9 {
				t.Errorf("AnsW made answers worse on average: base %.3f vs %.3f", base/n, ansW/n)
			}
		})
	}
}

// mustApply applies o to q, failing the test on a structural error.
func mustApply(t *testing.T, o ops.Op, q *query.Query) *query.Query {
	t.Helper()
	q2, err := o.Apply(q)
	if err != nil {
		t.Fatalf("Apply(%s): %v", o, err)
	}
	return q2
}
