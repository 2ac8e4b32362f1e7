package chase_test

import (
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/par"
)

// TestBatchMatchesSequential is the batch engine's determinism gate:
// AskAll over one shared session must produce, for every worker count,
// exactly the answers (rendered rewrite, matches, step and state
// counts) of a one-job-at-a-time loop. Beam and exact jobs are mixed so
// both algorithms cross the shared cache concurrently.
func TestBatchMatchesSequential(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 1200, 6, 5)
	jobs := make([]chase.BatchJob, len(instances))
	for i, inst := range instances {
		jobs[i] = chase.BatchJob{Q: inst.Q, E: inst.E, MaxSteps: 400}
		if i%2 == 1 {
			jobs[i].Beam = 3
		}
	}
	cfg := chase.DefaultConfig()
	cfg.MaxSteps = 400

	type rendered struct {
		answer        string
		steps, states int
	}
	render := func(results []chase.BatchResult) []rendered {
		out := make([]rendered, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("job %d: %v", i, r.Err)
			}
			out[i] = rendered{renderAnswer(r.Answer), r.Steps, r.States}
		}
		return out
	}

	// Reference: a fresh session compiling the questions one at a time
	// and calling the algorithms itself, off the job path.
	refSess := chase.NewSession(g, cfg)
	ref := make([]rendered, len(jobs))
	var refSteps int64
	for i, j := range jobs {
		w, err := refSess.Why(j.Q, j.E)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		a := w.AnsW()
		if j.Beam > 0 {
			a = w.AnsHeu(j.Beam)
		}
		ref[i] = rendered{renderAnswer(a), w.Stats.Steps, w.Stats.States}
		refSteps += int64(w.Stats.Steps)
	}

	for _, workers := range []int{1, 4, 8} {
		cfg.Workers = workers
		sess := chase.NewSession(g, cfg)
		results, stats := sess.AskAll(jobs)
		got := render(results)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d job %d diverged:\nref %+v\ngot %+v", workers, i, ref[i], got[i])
			}
		}
		if stats.Steps != refSteps {
			t.Errorf("workers=%d total steps %d, want %d", workers, stats.Steps, refSteps)
		}
		if stats.Jobs != len(jobs) || stats.Failed != 0 || stats.Workers != workers {
			t.Errorf("workers=%d stats: %+v", workers, stats)
		}
	}
}

// TestBatchJobOverrides checks the per-job knobs: a starved step budget
// must bite only the job carrying it, and a deadline must not break the
// anytime contract (an answer still comes back).
func TestBatchJobOverrides(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 800, 2, 3)
	cfg := chase.DefaultConfig()
	cfg.Workers = 2
	sess := chase.NewSession(g, cfg)

	jobs := []chase.BatchJob{
		{Q: instances[0].Q, E: instances[0].E, MaxSteps: 1},
		{Q: instances[1].Q, E: instances[1].E, MaxSteps: 500, TimeLimit: time.Minute},
	}
	results, stats := sess.AskAll(jobs)
	if stats.Failed != 0 {
		t.Fatalf("no job should fail: %+v", stats)
	}
	if results[0].Steps > 1 {
		t.Errorf("job 0 ran %d steps past its MaxSteps=1 budget", results[0].Steps)
	}
	if results[1].Steps <= 1 {
		t.Errorf("job 1 was starved (%d steps) by job 0's override", results[1].Steps)
	}
}

// TestBatchReportsErrors: a malformed job reports its error in its own
// submission-order slot and the rest of the batch is unaffected.
func TestBatchReportsErrors(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 800, 2, 9)
	cfg := chase.DefaultConfig()
	cfg.Workers = 3
	sess := chase.NewSession(g, cfg)
	jobs := []chase.BatchJob{
		{Q: instances[0].Q, E: instances[0].E},
		{Q: nil, E: instances[1].E}, // compilation must fail
		{Q: instances[1].Q, E: instances[1].E},
	}
	results, stats := sess.AskAll(jobs)
	if results[1].Err == nil {
		t.Error("nil query must surface an error in slot 1")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs disturbed: %v / %v", results[0].Err, results[2].Err)
	}
	if stats.Failed != 1 {
		t.Errorf("stats.Failed = %d, want 1", stats.Failed)
	}
}

// TestSessionConcurrentStress hammers one Session from many concurrent
// questions — Ask, AskFast, Why+AnsW, and nested AskAll — under the
// race detector (make race runs this package with -race). Every answer
// must equal the single-threaded reference regardless of interleaving.
func TestSessionConcurrentStress(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 1000, 4, 17)
	cfg := chase.DefaultConfig()
	cfg.MaxSteps = 300

	// Single-threaded reference answers, compiled and run off the job
	// path that Ask and AskFast share with AskAll.
	refSess := chase.NewSession(g, cfg)
	ref := make([]string, len(instances))
	refFast := make([]string, len(instances))
	for i, inst := range instances {
		w, err := refSess.Why(inst.Q, inst.E)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = renderAnswer(w.AnsW())
		if w, err = refSess.Why(inst.Q, inst.E); err != nil {
			t.Fatal(err)
		}
		refFast[i] = renderAnswer(w.AnsHeu(3))
	}

	sess := chase.NewSession(g, cfg)
	const rounds = 24
	got := make([]string, rounds)
	par.ForEach(8, rounds, func(i int) {
		inst := instances[i%len(instances)]
		switch i % 4 {
		case 0:
			a, err := sess.Ask(inst.Q, inst.E)
			if err != nil {
				panic(err)
			}
			got[i] = renderAnswer(a)
		case 1:
			a, err := sess.AskFast(inst.Q, inst.E, 3)
			if err != nil {
				panic(err)
			}
			got[i] = renderAnswer(a)
		case 2:
			w, err := sess.Why(inst.Q, inst.E)
			if err != nil {
				panic(err)
			}
			got[i] = renderAnswer(w.AnsW())
		default:
			results, _ := sess.AskAll([]chase.BatchJob{{Q: inst.Q, E: inst.E}})
			if results[0].Err != nil {
				panic(results[0].Err)
			}
			got[i] = renderAnswer(results[0].Answer)
		}
	})
	for i := range got {
		want := ref[i%len(instances)]
		if i%4 == 1 {
			want = refFast[i%len(instances)]
		}
		if got[i] != want {
			t.Errorf("round %d (mode %d): concurrent answer diverged\n got %s\nwant %s", i, i%4, got[i], want)
		}
	}
}
