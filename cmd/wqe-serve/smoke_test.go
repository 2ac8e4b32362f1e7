package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/loadgen"
	"wqe/internal/par"
)

// The Fig 1 cellphone fixture, shared with wqe-loadgen and the serving
// benchmark so every serving-path tool exercises the same question.
const (
	smokeQueryJSON    = loadgen.Fig1QueryJSON
	smokeExemplarJSON = loadgen.Fig1ExemplarJSON
)

// runSmoke starts a real server on an ephemeral port, exercises every
// endpoint against the built-in Fig 1 graph, checks /stats accounting,
// then drains and shuts down cleanly. Every assertion is deterministic:
// the fixture's optimal rewrite has closeness 0.5 at budget 4, and the
// session counters are exact functions of the requests sent.
func runSmoke(cfg chase.Config, slots, queueCap int) error {
	f := datagen.NewFig1()
	cfg.Budget = 4 // the Fig 1 optimum needs the Example 3.3 budget
	handles := []*graphHandle{{name: "fig1", g: f.G, session: chase.NewSession(f.G, cfg), source: "builtin"}}
	srv := newServer(handles, par.Workers(slots), queueCap, 30*time.Second)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.mux()}
	var group par.Group
	var serveErr error
	group.Go(func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr = err
		}
	})
	base := "http://" + ln.Addr().String()

	smokeErr := smokeExercise(base, cfg.AnswerCacheCap > 0)

	// Drain first: the listener is still up, so new admissions must now
	// be rejected with 503 — probe that before shutting the listener
	// down and joining the accept loop.
	srv.drain()
	if smokeErr == nil {
		status, _, err := smokePost(base+"/ask", smokeAskBody(""))
		switch {
		case err != nil:
			smokeErr = fmt.Errorf("post-drain probe: %w", err)
		case status != http.StatusServiceUnavailable:
			smokeErr = fmt.Errorf("post-drain /ask: got %d, want 503", status)
		}
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	group.Wait()
	if smokeErr != nil {
		return smokeErr
	}
	if serveErr != nil {
		return fmt.Errorf("serve: %w", serveErr)
	}
	return nil
}

// smokeAskBody renders a single-question payload for the fixture.
func smokeAskBody(algo string) []byte {
	body := map[string]interface{}{
		"graph":    "fig1",
		"query":    json.RawMessage(smokeQueryJSON),
		"exemplar": json.RawMessage(smokeExemplarJSON),
	}
	if algo != "" {
		body["algo"] = algo
	}
	b, err := json.Marshal(body)
	if err != nil {
		// The payload is built from constants; this cannot fail.
		panic(err)
	}
	return b
}

// smokeExercise drives every endpoint once and checks the outcomes.
// answerCache says whether the session memoizes answers, which changes
// the exact /stats accounting: the 9 memo-eligible jobs collapse onto 4
// distinct chases when it is on.
func smokeExercise(base string, answerCache bool) error {
	// Liveness and residency.
	var health map[string]string
	if err := smokeGet(base+"/healthz", &health); err != nil {
		return err
	}
	if health["status"] != "ok" {
		return fmt.Errorf("/healthz: %v", health)
	}
	var graphs []graphInfo
	if err := smokeGet(base+"/graphs", &graphs); err != nil {
		return err
	}
	if len(graphs) != 1 || graphs[0].Name != "fig1" || graphs[0].Nodes == 0 {
		return fmt.Errorf("/graphs: %+v", graphs)
	}

	// The exact search finds the paper's optimal rewrite.
	var ask askResponse
	if err := smokePostJSON(base+"/ask", smokeAskBody(""), &ask); err != nil {
		return fmt.Errorf("/ask: %w", err)
	}
	if ask.Closeness != 0.5 || !ask.Satisfied {
		return fmt.Errorf("/ask: closeness=%v satisfied=%v, want 0.5/true", ask.Closeness, ask.Satisfied)
	}

	// Each remaining algorithm endpoint answers and reports effort.
	for _, ep := range []string{"/askfast", "/why", "/whyempty", "/whymany"} {
		var r askResponse
		if err := smokePostJSON(base+ep, smokeAskBody(""), &r); err != nil {
			return fmt.Errorf("%s: %w", ep, err)
		}
		if r.Steps < 1 || r.Rewrite == "" {
			return fmt.Errorf("%s: empty outcome %+v", ep, r)
		}
	}
	// /why must carry the explanation payload.
	var why askResponse
	if err := smokePostJSON(base+"/why", smokeAskBody(""), &why); err != nil {
		return err
	}
	if why.Explanation == "" || len(why.Diff) == 0 {
		return fmt.Errorf("/why: missing explanation/diff")
	}

	// Batch: three jobs over the shared session, answers in order.
	batch := map[string]interface{}{
		"graph": "fig1",
		"jobs": []interface{}{
			json.RawMessage(smokeAskBody("")),
			json.RawMessage(smokeAskBody("heu")),
			json.RawMessage(smokeAskBody("whymany")),
		},
	}
	bb, err := json.Marshal(batch)
	if err != nil {
		panic(err) // constants in, cannot fail
	}
	var all askAllResponse
	if err := smokePostJSON(base+"/askall", bb, &all); err != nil {
		return fmt.Errorf("/askall: %w", err)
	}
	if all.Stats.Jobs != 3 || all.Stats.Failed != 0 || len(all.Results) != 3 {
		return fmt.Errorf("/askall stats: %+v", all.Stats)
	}
	if all.Results[0].Answer == nil || all.Results[0].Answer.Closeness != 0.5 {
		return fmt.Errorf("/askall job 1: %+v", all.Results[0])
	}

	// Malformed payloads and unknown graphs are 400s, not crashes.
	if status, _, err := smokePost(base+"/ask", []byte(`{"graph":"nope"}`)); err != nil || status != http.StatusBadRequest {
		return fmt.Errorf("unknown graph: status=%d err=%v, want 400", status, err)
	}
	if status, _, err := smokePost(base+"/ask", []byte(`not json`)); err != nil || status != http.StatusBadRequest {
		return fmt.Errorf("bad payload: status=%d err=%v, want 400", status, err)
	}

	// /stats accounting: 6 single questions + 3 batch jobs ran, the
	// shared cache served repeats, and nothing was rejected.
	var stats statsResponse
	if err := smokeGet(base+"/stats", &stats); err != nil {
		return err
	}
	sc := stats.Graphs["fig1"]
	if sc.Nodes != graphs[0].Nodes || sc.Edges != graphs[0].Edges {
		return fmt.Errorf("/stats residency size %d/%d, want %d/%d",
			sc.Nodes, sc.Edges, graphs[0].Nodes, graphs[0].Edges)
	}
	if sc.Source != "builtin" || sc.SnapshotVersion != 0 || sc.PLLRestored {
		return fmt.Errorf("/stats residency provenance: %+v", sc)
	}
	// 9 memo-eligible jobs were served (6 single questions + 3 batch
	// jobs). With the answer memo on they collapse onto 4 distinct
	// chases (ask/why/askall-answ share one key, askfast/askall-heu
	// another) and the memo counters must balance exactly; off, every
	// job chases and the memo counters stay flat.
	ac := sc.AnswerCache
	const memoJobs = 9
	if answerCache {
		if sc.Questions != 4 {
			return fmt.Errorf("/stats questions = %d, want 4 distinct chases with the answer cache on", sc.Questions)
		}
		if ac.Hits+ac.Misses+ac.Coalesced != memoJobs {
			return fmt.Errorf("answer cache hits+misses+coalesced = %d+%d+%d, want %d jobs served",
				ac.Hits, ac.Misses, ac.Coalesced, memoJobs)
		}
		if ac.Misses != 4 || ac.Hits != 5 || ac.Coalesced != 0 || ac.Size != 4 {
			return fmt.Errorf("answer cache counters: %+v, want 4 misses / 5 hits / 4 resident", ac)
		}
	} else {
		if sc.Questions != memoJobs {
			return fmt.Errorf("/stats questions = %d, want %d", sc.Questions, memoJobs)
		}
		if ac.Hits != 0 || ac.Misses != 0 || ac.Coalesced != 0 || ac.Size != 0 {
			return fmt.Errorf("answer cache counters with memo off: %+v, want all zero", ac)
		}
	}
	if sc.Steps < int64(sc.Questions) {
		return fmt.Errorf("/stats steps = %d, want ≥ %d", sc.Steps, sc.Questions)
	}
	if sc.Cache.Hits == 0 || sc.Cache.Size == 0 {
		return fmt.Errorf("/stats cache counters flat: %+v", sc.Cache)
	}
	if stats.Requests.BadRequest != 2 || stats.Requests.RejectedFull != 0 {
		return fmt.Errorf("/stats requests: %+v", stats.Requests)
	}

	// Per-endpoint latency histograms: every serving endpoint reports
	// the exact request count it saw (the two 400s count on /ask — a
	// rejection is still latency a client observed) with ordered,
	// max-clamped quantiles.
	wantCounts := map[string]int64{
		"/ask": 3, "/askfast": 1, "/why": 2, "/whyempty": 1, "/whymany": 1, "/askall": 1,
	}
	for _, ep := range askEndpoints {
		e, ok := stats.Endpoints[ep]
		if !ok {
			return fmt.Errorf("/stats endpoints missing %s: %+v", ep, stats.Endpoints)
		}
		if e.Count != wantCounts[ep] {
			return fmt.Errorf("/stats %s count = %d, want %d", ep, e.Count, wantCounts[ep])
		}
		if e.P50MS <= 0 || e.P50MS > e.P95MS || e.P95MS > e.P99MS || e.P99MS > e.MaxMS {
			return fmt.Errorf("/stats %s quantiles out of order: %+v", ep, e)
		}
	}

	return nil
}

// smokeGet fetches a JSON endpoint into out.
func smokeGet(url string, out interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// smokePost posts a JSON body and returns status and response bytes.
func smokePost(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// smokePostJSON posts and decodes a 200 JSON response into out.
func smokePostJSON(url string, body []byte, out interface{}) error {
	status, b, err := smokePost(url, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}
