package main

import (
	"math"
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/graph"
)

// ramp returns 1..n as float64s, already ascending.
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	v := ramp(100)
	for _, c := range []struct{ p, want float64 }{
		{0.50, 50}, {0.80, 80}, {0.90, 90}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// The reason internal/hist is not used: values inside one
	// power-of-two bucket must still be told apart.
	close := []float64{4.10, 4.11, 4.12, 4.13, 4.14, 4.15, 4.16, 4.17, 4.18, 4.19}
	if p50, p95 := percentile(close, 0.5), percentile(close, 0.95); p50 != 4.14 || p95 != 4.19 {
		t.Errorf("p50, p95 = %g, %g; want 4.14, 4.19", p50, p95)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		nominal float64
		want    float64
	}{
		{1000, 0.99, 0.99}, // exactly 10 beyond p99
		{999, 0.99, 0.95},  // 9 beyond p99: fall to p95
		{200, 0.99, 0.95},  // 2 beyond p99, 10 beyond p95
		{199, 0.99, 0.90},  // 9 beyond p95
		{100, 0.99, 0.90},  // 10 beyond p90
		{60, 0.99, 0.80},   // 6 beyond p90, 12 beyond p80
		{1000, 0.90, 0.90}, // never above the nominal percentile
		{20, 0.95, 0.80},   // nothing qualifies: the lowest candidate
	} {
		if got := tailPercentile(c.n, c.nominal); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.nominal, got, c.want)
		}
	}
}

func TestMedianMeanJaccard(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
	if got := jaccard([]int64{1, 2, 3, 4}, []int64{3, 4, 5}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("jaccard = %g, want 0.4", got)
	}
	if got := jaccard(nil, nil); got != 1 {
		t.Errorf("jaccard of two empty sets = %g, want 1", got)
	}
	if got := jaccard(nil, []int64{1}); got != 0 {
		t.Errorf("jaccard(empty, {1}) = %g, want 0", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	tr := &tracer{spans: []span{
		{ID: 1, Parent: 0, Op: 1, Name: "question", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Op: 1, Name: "compile", Start: 0, End: ms(10)},
		{ID: 3, Parent: 1, Op: 1, Name: "run", Start: ms(10), End: ms(98)},
	}}
	tr.aggregate(1, 3, "oracle", 40, 30*time.Millisecond)
	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{
		"question": 2 * time.Millisecond,
		"compile":  10 * time.Millisecond,
		"run":      58 * time.Millisecond,
		"oracle":   30 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if got := tr.childCover("question"); math.Abs(got-0.98) > 1e-9 {
		t.Errorf("children cover %g of question, want 0.98", got)
	}
	if got := tr.spans[3]; got.Parent != 3 || got.Count != 40 || got.Op != 1 {
		t.Errorf("aggregated span = %+v", got)
	}
}

func TestBodiesCompareWithoutElapsed(t *testing.T) {
	a := []byte(`{"cost":1,"states":3,"elapsed_ms":12.5,"diff":[]}`)
	b := []byte(`{"cost":1,"states":3,"elapsed_ms":0.031,"diff":[]}`)
	c := []byte(`{"cost":2,"states":3,"elapsed_ms":12.5,"diff":[]}`)
	d := []byte(`{"cost":1,"states":3,"elapsed_ms":12.5}`)
	if !sameButElapsed(a, b) {
		t.Error("bodies differing only in elapsed_ms must compare equal")
	}
	if sameButElapsed(a, c) {
		t.Error("bodies differing in cost must not compare equal")
	}
	if sameButElapsed(a, d) {
		t.Error("a body missing a member must not compare equal")
	}
}

// TestCheckerOnFig1 runs the paper's running example through the same
// path the library workloads take and requires the independent checker
// to accept the answer and to reject tampered ones.
func TestCheckerOnFig1(t *testing.T) {
	fig := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	cfg.Workers = 1
	sess := chase.NewSession(fig.G, cfg)
	q := compiled{q: fig.Q, e: fig.E, algo: "answ"}
	a := ask(sess, q)
	if a.err != nil {
		t.Fatal(a.err)
	}
	if math.Abs(a.answer.Closeness-0.5) > 1e-9 {
		t.Fatalf("Fig 1 optimum at budget 4 has closeness 0.5, got %g", a.answer.Closeness)
	}
	ck := newChecker(fig.G, cfg)
	if err := ck.check(q, a.answer); err != nil {
		t.Fatalf("checker rejects the correct answer: %v", err)
	}

	tampered := a.answer
	tampered.Matches = append([]graph.NodeID{}, a.answer.Matches[1:]...)
	if ck.check(q, tampered) == nil {
		t.Error("checker accepts an answer with a match removed")
	}
	tampered = a.answer
	tampered.Closeness += 0.01
	if ck.check(q, tampered) == nil {
		t.Error("checker accepts a wrong closeness")
	}
	tampered = a.answer
	tampered.Ops = a.answer.Ops[:len(a.answer.Ops)-1]
	if ck.check(q, tampered) == nil {
		t.Error("checker accepts a rewrite that is not the question plus its ops")
	}
	tight := cfg
	tight.Budget = 1
	if newChecker(fig.G, tight).check(q, a.answer) == nil {
		t.Error("checker accepts a cost above the budget")
	}

	// The served form of the same answer equals itself and nothing else.
	served := answerBody{
		Rewrite: a.answer.Query.String(), Ops: []string{}, Cost: a.answer.Cost, Closeness: a.answer.Closeness,
		Satisfied: a.answer.Satisfied, Matches: nodeIDs(a.answer.Matches),
		Steps: a.stats.Steps, States: a.stats.States, ElapsedMS: 3.2,
	}
	for _, o := range a.answer.Ops {
		served.Ops = append(served.Ops, o.String())
	}
	if err := sameAsLibrary(served, "/ask", a, fig.G); err != nil {
		t.Errorf("served form of the library answer differs from it: %v", err)
	}
	served.Steps++
	if sameAsLibrary(served, "/ask", a, fig.G) == nil {
		t.Error("a served answer with another step count compares equal")
	}
}

func TestSampleIndices(t *testing.T) {
	if got := sampleIndices(3, 10); len(got) != 3 || got[2] != 2 {
		t.Errorf("sampleIndices(3, 10) = %v", got)
	}
	got := sampleIndices(1000, 4)
	if len(got) != 4 || got[0] != 0 || got[1] != 250 || got[3] != 750 {
		t.Errorf("sampleIndices(1000, 4) = %v", got)
	}
	if got := sampleIndices(0, 4); len(got) != 0 {
		t.Errorf("sampleIndices(0, 4) = %v", got)
	}
}
