package chase

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/match"
	"wqe/internal/query"
)

// answerDigest renders what a question's answer is: the rewrite, its
// operators and lineage, and what it matches.
func answerDigest(a Answer) string {
	return fmt.Sprintf("%s\n%s\n%v\n%+v", a, a.Query.Key(), a.Matches, a.Diff)
}

// TestPanicMidAddLPoisonsNoQuestion panics runs while addL's per-code
// counts are taken and not reset, at the first few pattern nodes it
// counts. The session must drop each such run's scratch: the questions
// it answers next answer as on a fresh session.
func TestPanicMidAddLPoisonsNoQuestion(t *testing.T) {
	g, insts, err := seededQuestions(datagen.DatasetProducts, 23, 29, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	fresh := NewSession(g, cfg)
	want := make([]string, len(insts))
	for i, inst := range insts {
		a, err := fresh.Ask(inst.Q, inst.E)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answerDigest(a)
	}
	for n := 1; n <= 4; n++ {
		s := NewSession(g, cfg)
		w, err := s.Why(insts[0].Q, insts[0].E)
		if err != nil {
			t.Fatal(err)
		}
		undo := PanicMidAddL(n)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("panic at pattern node %d: the run counted fewer", n)
				}
			}()
			w.AnsW()
		}()
		undo()
		// What the session lends next is clean: not the scratch the panic
		// left busy, whose counts are half-reset.
		sc := s.gens.Get().(*genScratch)
		if sc.busy || slices.ContainsFunc(sc.addL.counts, func(c addLCount) bool { return c.n != 0 }) {
			t.Fatalf("after a panic at pattern node %d the session lends a scratch left mid-addL", n)
		}
		s.gens.Put(sc)
		for i, inst := range insts {
			a, err := s.Ask(inst.Q, inst.E)
			if err != nil {
				t.Fatal(err)
			}
			if got := answerDigest(a); got != want[i] {
				t.Fatalf("question %d after a panic at pattern node %d answers\n%s\non a fresh session\n%s", i, n, got, want[i])
			}
		}
	}
}

// TestWhyRunsTwiceAlike: a Why asked again borrows a scratch again and
// answers as before, with the same effort.
func TestWhyRunsTwiceAlike(t *testing.T) {
	g, insts, err := seededQuestions(datagen.DatasetProducts, 23, 29, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheCap = 0 // no star-cache counts to differ
	s := NewSession(g, cfg)
	for i, inst := range insts {
		w, err := s.Why(inst.Q, inst.E)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			ask  func() Answer
		}{{"AnsW", w.AnsW}, {"AnsHeu", func() Answer { return w.AnsHeu(3) }}} {
			first, firstStats := run.ask(), w.Stats
			second, secondStats := run.ask(), w.Stats
			if answerDigest(first) != answerDigest(second) {
				t.Fatalf("question %d: %s answered\n%s\nthen\n%s", i, run.name, answerDigest(first), answerDigest(second))
			}
			for _, st := range []*Stats{&firstStats, &secondStats} {
				st.Elapsed = 0
				for k := range st.Trajectory {
					st.Trajectory[k].At = 0
				}
			}
			if !reflect.DeepEqual(firstStats, secondStats) {
				t.Fatalf("question %d: %s stats %+v, then %+v", i, run.name, firstStats, secondStats)
			}
			if w.gs != nil {
				t.Fatalf("question %d: %s kept its scratch after the run", i, run.name)
			}
		}
	}
}

// TestGeneratorsOnUsedScratch: at every walked state, GenRefine and
// GenRelax emit on a scratch that every question and state before it
// used, whatever its graph, what they emit on a new one. The oracle
// tests cannot see this: they call the same generators (addE, the
// accumulators) on the same scratch.
func TestGeneratorsOnUsedScratch(t *testing.T) {
	shared := new(genScratch)
	compared := 0
	check := func(w *Why, s walkedState, res *match.Result) {
		used := s.seq.Targets()
		for _, gen := range []struct {
			name string
			run  func() []scoredOp
		}{
			{"GenRefine", func() []scoredOp { return w.GenRefine(res, used, w.Cfg.Budget) }},
			{"GenRelax", func() []scoredOp { return w.GenRelax(res, used, w.Cfg.Budget) }},
		} {
			w.gs = shared
			got := withGains(w, s.q, gen.run)
			w.gs = nil
			sameOps(t, s.what+" "+gen.name, got, withGains(w, s.q, gen.run))
			compared += len(got.ops)
		}
		w.gs = shared // for the walk's own calls
	}
	datasetWhys(t, 2, func(_, what string, w *Why, q *query.Query) {
		walkStates(t, w, what, q, 2, func(s walkedState, res *match.Result) { check(w, s, res) })
	})
	g, e, cases := edgeCases()
	for _, tc := range cases {
		w := tc.why(t, g, e)
		walkStates(t, w, tc.name, tc.q, 2, func(s walkedState, res *match.Result) { check(w, s, res) })
	}
	if compared < 1000 {
		t.Errorf("only %d operators compared", compared)
	}
}

// genAllocSlack is how many allocations a warmed generator call may make
// beside its returned slice, whatever the number of operators it
// returns: what GenRefine builds of the question per call (a matching
// signature sorts a copy of literals listed out of order). The compiled
// pattern and its focus distances reuse the scratch.
const genAllocSlack = 4

// TestGeneratorAllocs counts, not times, what warmed GenRefine and
// GenRelax calls allocate at fixed states of a seeded products question:
// at most the returned slice plus genAllocSlack. A slice made per
// candidate operator or per sampled match breaks it on the states that
// return more than genAllocSlack+1 operators, which it requires some of.
func TestGeneratorAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the graph's BFS scratch never stays warm")
	}
	g, insts, err := seededQuestions(datagen.DatasetProducts, 23, 29, 4)
	if err != nil {
		t.Fatal(err)
	}
	large := 0
	for i, inst := range insts {
		w, err := NewWhy(g, inst.Q, inst.E, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		walkStates(t, w, fmt.Sprintf("question %d", i), inst.Q, 2, func(s walkedState, res *match.Result) {
			used := s.seq.Targets()
			budgetLeft := w.Cfg.Budget - s.cost
			for _, gen := range []struct {
				name string
				run  func() []scoredOp
			}{
				{"GenRefine", func() []scoredOp { return w.GenRefine(res, used, budgetLeft) }},
				{"GenRelax", func() []scoredOp { return w.GenRelax(res, used, budgetLeft) }},
			} {
				n := len(gen.run()) // warms the scratch and the partner sets
				allocs := testing.AllocsPerRun(5, func() { gen.run() })
				t.Logf("%s %s: %d operators, %v allocations", s.what, gen.name, n, allocs)
				if limit := min(n, 1) + genAllocSlack; allocs > float64(limit) {
					t.Errorf("%s: %s returned %d operators in %v allocations, want at most %d",
						s.what, gen.name, n, allocs, limit)
				}
				if n > genAllocSlack+1 {
					large++
				}
			}
		})
	}
	if large < 4 {
		t.Errorf("only %d calls returned more than %d operators", large, genAllocSlack+1)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
