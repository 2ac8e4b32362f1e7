package chase_test

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/par"
	"wqe/internal/query"
)

func memoConfig() chase.Config {
	cfg := chase.DefaultConfig()
	cfg.MaxSteps = 300
	cfg.AnswerCacheCap = 4096
	return cfg
}

// TestMemoCountingOracle is the coalescing gate: K concurrent identical
// requests execute exactly one chase — the session Questions counter is
// the oracle, since only real chases increment it — and every caller
// receives an identical answer.
func TestMemoCountingOracle(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 800, 1, 3)
	sess := chase.NewSession(g, memoConfig())
	job := chase.BatchJob{Q: instances[0].Q, E: instances[0].E}

	const K = 8
	results := make([]chase.BatchResult, K)
	var grp par.Group
	for i := 0; i < K; i++ {
		i := i
		grp.Go(func() { results[i] = sess.Run(job) })
	}
	grp.Wait()

	sc := sess.Counters()
	if sc.Questions != 1 {
		t.Fatalf("Questions = %d, want exactly 1 chase for %d identical requests", sc.Questions, K)
	}
	ac := sc.AnswerCache
	if ac.Misses != 1 || ac.Hits+ac.Coalesced != K-1 {
		t.Fatalf("answer cache counters = %+v, want 1 miss and %d hits+coalesced", ac, K-1)
	}
	ref := results[0]
	if ref.Err != nil {
		t.Fatalf("request failed: %v", ref.Err)
	}
	refR := renderAnswer(ref.Answer)
	for i := 1; i < K; i++ {
		if results[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, results[i].Err)
		}
		if r := renderAnswer(results[i].Answer); r != refR ||
			results[i].Steps != ref.Steps || results[i].States != ref.States {
			t.Errorf("request %d diverged from request 0:\n%s\nvs\n%s", i, r, refR)
		}
	}
}

// TestMemoOffIdentical pins that the memo is invisible in the answers:
// the same job stream through a cache-on and a cache-off session
// renders identical rewrites, steps, and states (only wall-clock
// Elapsed may differ).
func TestMemoOffIdentical(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 800, 3, 3)
	// Repeat every question so the memo path actually serves hits.
	var jobs []chase.BatchJob
	for _, inst := range instances {
		j := chase.BatchJob{Q: inst.Q, E: inst.E}
		jobs = append(jobs, j, j)
	}

	on := memoConfig()
	off := memoConfig()
	off.AnswerCacheCap = 0

	run := func(cfg chase.Config) []chase.BatchResult {
		sess := chase.NewSession(g, cfg)
		out := make([]chase.BatchResult, len(jobs))
		for i, j := range jobs {
			out[i] = sess.Run(j)
		}
		sc := sess.Counters()
		if cfg.AnswerCacheCap > 0 {
			if sc.Questions != int64(len(instances)) || sc.AnswerCache.Hits != int64(len(instances)) {
				t.Fatalf("cache-on counters = %+v, want %d chases and as many hits", sc, len(instances))
			}
		} else if sc.Questions != int64(len(jobs)) {
			t.Fatalf("cache-off Questions = %d, want %d", sc.Questions, len(jobs))
		}
		return out
	}

	rOn, rOff := run(on), run(off)
	for i := range jobs {
		if rOn[i].Err != nil || rOff[i].Err != nil {
			t.Fatalf("job %d errs: on=%v off=%v", i, rOn[i].Err, rOff[i].Err)
		}
		if renderAnswer(rOn[i].Answer) != renderAnswer(rOff[i].Answer) ||
			rOn[i].Steps != rOff[i].Steps || rOn[i].States != rOff[i].States {
			t.Errorf("job %d: cache-on answer differs from cache-off", i)
		}
	}
}

// TestMemoWaiterCancelDetached: a cancelled requester must not truncate
// the flight the other waiters share. Flights run detached, so even a
// request whose Cancel is already closed at submission receives the
// complete memoized answer, identical to everyone else's.
func TestMemoWaiterCancelDetached(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 800, 1, 3)
	sess := chase.NewSession(g, memoConfig())
	cancelled := make(chan struct{})
	close(cancelled)

	const K = 6
	results := make([]chase.BatchResult, K)
	var grp par.Group
	for i := 0; i < K; i++ {
		i := i
		j := chase.BatchJob{Q: instances[0].Q, E: instances[0].E}
		if i%2 == 1 {
			j.Cancel = cancelled
		}
		grp.Go(func() { results[i] = sess.Run(j) })
	}
	grp.Wait()

	if sc := sess.Counters(); sc.Questions != 1 {
		t.Fatalf("Questions = %d, want 1 shared chase", sc.Questions)
	}
	ref := renderAnswer(results[0].Answer)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if renderAnswer(r.Answer) != ref {
			t.Errorf("request %d (cancel=%v) diverged from the shared flight", i, i%2 == 1)
		}
	}
}

// TestMemoKeying pins the canonical-key contract: algorithm aliases
// ("" vs "answ"; Beam>0 vs explicit "heu") share entries, different
// algorithms do not, and unknown algorithms bypass the memo entirely.
func TestMemoKeying(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 800, 1, 3)
	sess := chase.NewSession(g, memoConfig())
	q, e := instances[0].Q, instances[0].E

	// "" and "answ" are the same algorithm — one chase.
	sess.Run(chase.BatchJob{Q: q, E: e})
	sess.Run(chase.BatchJob{Q: q, E: e, Algo: "answ"})
	if sc := sess.Counters(); sc.Questions != 1 || sc.AnswerCache.Hits != 1 {
		t.Fatalf("answ alias: %+v, want 1 chase + 1 hit", sc)
	}

	// Bare Beam=3, "heu" with Beam=3, and "heu" with the default width
	// all resolve to heu:3 — one more chase, two more hits.
	sess.Run(chase.BatchJob{Q: q, E: e, Beam: 3})
	sess.Run(chase.BatchJob{Q: q, E: e, Algo: "heu", Beam: 3})
	sess.Run(chase.BatchJob{Q: q, E: e, Algo: "heu"})
	if sc := sess.Counters(); sc.Questions != 2 || sc.AnswerCache.Hits != 3 {
		t.Fatalf("heu alias: %+v, want 2 chases + 3 hits", sc)
	}

	// A different beam width is a different question.
	sess.Run(chase.BatchJob{Q: q, E: e, Beam: 5})
	if sc := sess.Counters(); sc.Questions != 3 {
		t.Fatalf("beam width not in key: %+v", sc)
	}

	// Unknown algorithm: an error, and no memo traffic at all.
	before := sess.Counters().AnswerCache
	if r := sess.Run(chase.BatchJob{Q: q, E: e, Algo: "bogus"}); r.Err == nil {
		t.Fatal("unknown algo must fail")
	}
	after := sess.Counters().AnswerCache
	if before != after {
		t.Fatalf("unknown algo touched the memo: %+v vs %+v", before, after)
	}
}

// TestMemoAskAll routes the batch path through the memo too: a batch of
// repeated jobs executes one chase per distinct question for every
// worker count, with results identical to the memo-off batch.
func TestMemoAskAll(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 800, 2, 3)
	var jobs []chase.BatchJob
	for _, inst := range instances {
		j := chase.BatchJob{Q: inst.Q, E: inst.E}
		jobs = append(jobs, j, j, j)
	}

	off := memoConfig()
	off.AnswerCacheCap = 0
	off.Workers = 1
	refResults, _ := chase.NewSession(g, off).AskAll(jobs)

	for _, workers := range []int{1, 4} {
		cfg := memoConfig()
		cfg.Workers = workers
		sess := chase.NewSession(g, cfg)
		results, stats := sess.AskAll(jobs)
		if stats.Failed != 0 {
			t.Fatalf("workers=%d: %d failed jobs", workers, stats.Failed)
		}
		if sc := sess.Counters(); sc.Questions != int64(len(instances)) {
			t.Errorf("workers=%d: %d chases, want %d", workers, sc.Questions, len(instances))
		}
		for i := range jobs {
			if renderAnswer(results[i].Answer) != renderAnswer(refResults[i].Answer) ||
				results[i].Steps != refResults[i].Steps {
				t.Errorf("workers=%d job %d diverged from memo-off reference", workers, i)
			}
		}
	}
}

// TestMemoSeparatesExemplarCells: exemplars that render alike —
// a constant's kind, a constant against the variable of that name, the
// wildcard against the variable "_" — are different questions. Asked one
// after the other on a memoizing session, the second runs its own chase
// and gets the answer a session that never saw the first gives it.
func TestMemoSeparatesExemplarCells(t *testing.T) {
	gb := graph.NewBuilder()
	for _, x := range []graph.Value{graph.N(1), graph.S("1"), graph.S("y"), graph.S("_")} {
		gb.AddNode("R", map[string]graph.Value{"x": x, "size": graph.N(3)})
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := query.New()
	q.Focus = q.AddNode("R", query.Literal{Attr: "size", Op: graph.GE, Val: graph.N(5)})
	for _, tc := range []struct {
		name          string
		first, second exemplar.Cell
	}{
		{"kind of a constant", exemplar.C(graph.N(1)), exemplar.C(graph.S("1"))},
		{"constant and variable", exemplar.C(graph.S("y")), exemplar.V("y")},
		{"wildcard and variable", exemplar.W(), exemplar.V("_")},
	} {
		job := func(c exemplar.Cell) chase.BatchJob {
			return chase.BatchJob{Q: q, E: &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"x": c}}}}
		}
		sess := chase.NewSession(g, memoConfig())
		if r := sess.Run(job(tc.first)); r.Err != nil {
			t.Fatalf("%s: %v", tc.name, r.Err)
		}
		got := sess.Run(job(tc.second))
		alone := chase.NewSession(g, memoConfig()).Run(job(tc.second))
		if got.Err != nil || alone.Err != nil {
			t.Fatalf("%s: %v, alone %v", tc.name, got.Err, alone.Err)
		}
		if sc := sess.Counters(); sc.Questions != 2 || sc.AnswerCache.Hits != 0 {
			t.Errorf("%s: %d chases, %d memo hits for two different questions", tc.name, sc.Questions, sc.AnswerCache.Hits)
		}
		if renderAnswer(got.Answer) != renderAnswer(alone.Answer) {
			t.Errorf("%s: second question answered\n%s\nasked alone\n%s", tc.name, renderAnswer(got.Answer), renderAnswer(alone.Answer))
		}
	}
}

// TestRunBodyStoresOnFirstHit pins the body slots of answer-memo
// entries: a miss stores nothing, the first hit for a variant renders
// once and keeps an exact-size copy, later hits share it, the two
// variants keep separate bodies, a failed render stores nothing and is
// not retried, and a session without the memo never renders.
func TestRunBodyStoresOnFirstHit(t *testing.T) {
	f := datagen.NewFig1()
	cfg := memoConfig()
	cfg.Budget = 4
	sess := chase.NewSession(f.G, cfg)
	job := chase.BatchJob{Q: f.Q, E: f.E}

	calls := 0
	var last []byte
	render := func(tag string) func(chase.BatchResult) []byte {
		return func(res chase.BatchResult) []byte {
			calls++
			last = append(make([]byte, 0, 64), tag+renderAnswer(res.Answer)...)
			return last
		}
	}
	run := func(variant int, r func(chase.BatchResult) []byte) *chase.Body {
		t.Helper()
		res, body := sess.RunBody(job, variant, r)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return body
	}

	if b := run(chase.BodyPlain, render("plain:")); b != nil || calls != 0 {
		t.Fatalf("miss: body %v after %d renders, want none", b, calls)
	}
	first := run(chase.BodyPlain, render("plain:"))
	if first == nil || calls != 1 {
		t.Fatalf("first hit: body %v after %d renders, want one render", first, calls)
	}
	want := "plain:" + renderAnswer(sess.Run(job).Answer)
	if string(first.Bytes) != want || cap(first.Bytes) != len(first.Bytes) ||
		len(first.Length) != 1 || first.Length[0] != strconv.Itoa(len(want)) {
		t.Fatalf("stored body %q (cap %d), length %q; want an exact-size %q", first.Bytes, cap(first.Bytes), first.Length, want)
	}
	last[0] = 'X' // the renderer's buffer is not the stored copy
	if again := run(chase.BodyPlain, render("plain:")); again != first || calls != 1 || string(again.Bytes) != want {
		t.Fatalf("second hit: body %p (%q) after %d renders, want the stored %p", again, again.Bytes, calls, first)
	}
	expl := run(chase.BodyExplained, render("explained:"))
	if expl == nil || calls != 2 || string(expl.Bytes) != "explained:"+want[len("plain:"):] {
		t.Fatalf("explained variant: body %v after %d renders", expl, calls)
	}
	if got := sess.Counters().AnswerBodies; got != 2 {
		t.Fatalf("AnswerBodies = %d, want 2", got)
	}

	// A failed render stores nothing, and the entry does not render again.
	job.MaxSteps = 7
	failing := func(chase.BatchResult) []byte { calls++; return nil }
	calls = 0
	for i := 0; i < 3; i++ {
		if b := run(chase.BodyPlain, failing); b != nil {
			t.Fatalf("request %d: failed render stored %q", i+1, b.Bytes)
		}
	}
	if calls != 1 || sess.Counters().AnswerBodies != 2 {
		t.Fatalf("failed render: %d renders, %d bodies; want 1 and 2", calls, sess.Counters().AnswerBodies)
	}

	// Concurrent first hits render once and all get the stored body; the
	// slow render keeps the other hits arriving while it runs.
	job.MaxSteps = 8
	run(chase.BodyPlain, nil)
	var renders atomic.Int32
	slow := func(res chase.BatchResult) []byte {
		renders.Add(1)
		time.Sleep(20 * time.Millisecond)
		return []byte(renderAnswer(res.Answer))
	}
	const K = 8
	got := make([]*chase.Body, K)
	start := make(chan struct{})
	var grp par.Group
	for i := 0; i < K; i++ {
		grp.Go(func() {
			<-start
			_, got[i] = sess.RunBody(job, chase.BodyPlain, slow)
		})
	}
	close(start)
	grp.Wait()
	for i, b := range got {
		if b == nil || b != got[0] {
			t.Fatalf("concurrent hit %d: body %p, want the one stored %p", i, b, got[0])
		}
	}
	if n := renders.Load(); n != 1 {
		t.Fatalf("%d concurrent first hits rendered %d times, want once", K, n)
	}

	off := memoConfig()
	off.AnswerCacheCap = 0
	sess = chase.NewSession(f.G, off)
	calls = 0
	for i := 0; i < 3; i++ {
		if b := run(chase.BodyPlain, render("plain:")); b != nil || calls != 0 {
			t.Fatalf("memo off, request %d: body %v after %d renders", i+1, b, calls)
		}
	}
}
