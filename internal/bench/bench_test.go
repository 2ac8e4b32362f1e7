package bench

import (
	"strings"
	"sync"
	"testing"
	"time"

	"wqe/internal/datagen"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// microOptions is the smallest size at which every instance set the
// figures ask for still holds a question and AnsW still reaches its prune
// branch, so that a defect on either path fails TestExperimentRegistry.
// At Scale 150 one set comes up empty; at MaxSteps 2 nothing is pruned.
func microOptions() Options {
	return Options{Scale: 200, Queries: 1, Seed: 3, MaxSteps: 3}
}

// shared is the one Harness of this test binary, used by every test but
// TestExperimentRegistry (which fills its own caches), with the products
// graph and questions they ask for generated up front. It is read-only
// after it is built: its caches only hit.
var shared = sync.OnceValue(func() *Harness {
	h := New(microOptions())
	h.Instances(InstanceSpec{Dataset: datagen.DatasetProducts})
	return h
})

// TestExperimentRegistry: every listed experiment produces a non-empty,
// well-formed table at micro scale.
func TestExperimentRegistry(t *testing.T) {
	h := New(microOptions())
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(h)
			if tbl.ID == "" || tbl.Title == "" {
				t.Error("table missing identification")
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("table has no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row width %d != header width %d", len(row), len(tbl.Header))
				}
			}
			var sb strings.Builder
			tbl.Fprint(&sb)
			if !strings.Contains(sb.String(), tbl.ID) {
				t.Error("printed table misses its id")
			}
		})
	}
	for key, set := range h.instances {
		if len(set) == 0 {
			t.Errorf("instance set %s is empty: its figure asks nothing at this size", key)
		}
	}
	if _, ok := Lookup("1a"); !ok {
		t.Error("Lookup(1a) failed")
	}
	if _, ok := Lookup("zz"); ok {
		t.Error("Lookup(zz) should fail")
	}
}

func TestHarnessCaching(t *testing.T) {
	h := shared()
	g1 := h.GraphFor(datagen.DatasetProducts, h.Opts.Scale)
	g2 := h.GraphFor(datagen.DatasetProducts, h.Opts.Scale)
	if g1 != g2 {
		t.Error("graphs must be cached per dataset+scale")
	}
	spec := InstanceSpec{Dataset: datagen.DatasetProducts}
	i1 := h.Instances(spec)
	i2 := h.Instances(spec)
	if len(i1) == 0 {
		t.Fatal("no instances generated")
	}
	if &i1[0] == nil || len(i1) != len(i2) {
		t.Error("instances must be cached")
	}
	for i := range i1 {
		if i1[i] != i2[i] {
			t.Error("instance cache returned different objects")
		}
	}
}

func TestRunAlgorithms(t *testing.T) {
	h := shared()
	g := h.GraphFor(datagen.DatasetProducts, h.Opts.Scale)
	instances := h.Instances(InstanceSpec{Dataset: datagen.DatasetProducts})
	if len(instances) == 0 {
		t.Skip("no instances at micro scale")
	}
	inst := instances[0]
	for _, a := range []Algo{AlgoAnsW, AlgoAnsWnc, AlgoAnsWb, AlgoAnsHeu, AlgoAnsHeuB, AlgoFMAnsW, AlgoApxWhyM, AlgoAnsWE} {
		r, err := h.Run(a, g, inst, 3)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if r.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time", a)
		}
	}
	if _, err := h.Run(Algo{Name: "nope"}, g, inst, 3); err == nil {
		t.Error("unknown algorithm must error")
	}
}

func TestJaccard(t *testing.T) {
	n := func(ids ...graph.NodeID) []graph.NodeID { return ids }
	cases := []struct {
		a, b []graph.NodeID
		want float64
	}{
		{nil, nil, 1},
		{n(1, 2), nil, 0},
		{n(1, 2), n(1, 2), 1},
		{n(1, 2), n(2, 3), 1.0 / 3},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); got != c.want {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNDCG(t *testing.T) {
	if got := ndcg([]float64{1, 0.5, 0.2}); got != 1 {
		t.Errorf("ideal order nDCG = %v, want 1", got)
	}
	if got := ndcg([]float64{0, 0, 0}); got != 1 {
		t.Errorf("all-zero gains nDCG = %v, want 1 (degenerate)", got)
	}
	rev := ndcg([]float64{0.2, 0.5, 1})
	if rev >= 1 || rev <= 0 {
		t.Errorf("reversed order nDCG = %v, want in (0,1)", rev)
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID:     "Fig X",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "y"}},
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "Fig X — demo") || !strings.Contains(out, "xxxxx") {
		t.Errorf("bad table rendering:\n%s", out)
	}
}

func TestInstanceSpecDefaults(t *testing.T) {
	h := shared()
	s := InstanceSpec{Dataset: datagen.DatasetMovies}.withDefaults(h)
	if s.Edges != 2 || s.Tuples != 5 || s.DisturbOps != 3 || s.Shape != query.TopoTree {
		t.Errorf("defaults wrong: %+v", s)
	}
	if s.Scale != h.Opts.Scale {
		t.Errorf("scale default wrong: %d", s.Scale)
	}
}

func TestMeanHelpers(t *testing.T) {
	if mean(nil) != 0 || meanF(nil) != 0 {
		t.Error("empty means must be zero")
	}
	if got := mean([]time.Duration{time.Second, 3 * time.Second}); got != 2*time.Second {
		t.Errorf("mean = %v", got)
	}
	if got := meanF([]float64{1, 2, 3}); got != 2 {
		t.Errorf("meanF = %v", got)
	}
}
