package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
)

// newTestServer builds a server over the Fig 1 fixture, with the
// answer memo on or off, and an httptest listener in front of its mux.
func newTestServer(t *testing.T, slots, queue int, answerCache bool) (*server, *httptest.Server) {
	t.Helper()
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	if answerCache {
		cfg.AnswerCacheCap = 4096
	}
	handles := []*graphHandle{{name: "fig1", g: f.G, session: chase.NewSession(f.G, cfg)}}
	srv := newServer(handles, slots, queue, 30*time.Second)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

// stallLimit bounds every wait in the admission tests: a regression
// that makes acquire ignore its context, or drain miss a waiter, fails
// in seconds and names the call instead of hanging until go test's
// ten-minute timeout.
const stallLimit = 5 * time.Second

// recvWithin receives from ch, failing the test if nothing arrives
// within stallLimit.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(stallLimit):
		t.Fatalf("%s: still blocked after %v", what, stallLimit)
		var zero T
		return zero
	}
}

// acquireWithin runs a.acquire on its own goroutine, so a stall fails
// the test (see stallLimit) instead of blocking it.
func acquireWithin(t *testing.T, a *admission, ctx context.Context, what string) (func(), int) {
	t.Helper()
	type result struct {
		release func()
		status  int
	}
	ch := make(chan result, 1)
	go func() {
		release, status := a.acquire(ctx)
		ch <- result{release, status}
	}()
	r := recvWithin(t, ch, what)
	return r.release, r.status
}

// TestAdmissionBounds pins the admission state machine: a full waiting
// room rejects with 429, a queued caller whose context is already done
// bails with the client-gone status without ever holding a slot, a
// released slot is reusable, and after drain every acquire is 503.
func TestAdmissionBounds(t *testing.T) {
	a := newAdmission(1, 1)

	release, status := acquireWithin(t, a, context.Background(), "first acquire")
	if status != 0 || release == nil {
		t.Fatalf("first acquire: status %d", status)
	}

	// Slot held, waiting room sized 1: a second caller may wait, a
	// third is turned away at the door.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, st := acquireWithin(t, a, ctx, "queued caller with dead context"); st != statusClientGone {
		t.Errorf("queued caller with dead context: status %d, want %d", st, statusClientGone)
	}
	if w, r, _ := a.snapshot(); w != 0 || r != 1 {
		t.Errorf("gauges after bail: waiting=%d running=%d, want 0/1", w, r)
	}

	release()
	release2, status := acquireWithin(t, a, context.Background(), "reacquire after release")
	if status != 0 {
		t.Fatalf("reacquire after release: status %d", status)
	}
	if _, st := acquireWithin(t, a, ctx, "dead-context caller"); st != statusClientGone {
		t.Errorf("dead-context caller: status %d, want %d", st, statusClientGone)
	}
	release2()

	a.beginDrain()
	if _, st := acquireWithin(t, a, context.Background(), "acquire after drain"); st != http.StatusServiceUnavailable {
		t.Errorf("acquire after drain: status %d, want 503", st)
	}
	if _, _, draining := a.snapshot(); !draining {
		t.Error("snapshot does not report draining")
	}
}

// TestAdmissionQueueFull fills the waiting room through real blocked
// waiters and checks the 429 path, then verifies drain flushes every
// queued caller with 503.
func TestAdmissionQueueFull(t *testing.T) {
	a := newAdmission(1, 1)
	release, status := acquireWithin(t, a, context.Background(), "acquire")
	if status != 0 {
		t.Fatalf("acquire: status %d", status)
	}

	// One caller blocks in the waiting room (capacity 1)...
	queued := make(chan int, 1)
	go func() {
		_, st := a.acquire(context.Background())
		queued <- st
	}()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if w, _, _ := a.snapshot(); w == 1 {
			break
		}
		if time.Since(start) > stallLimit {
			t.Fatalf("queued caller never entered the waiting room within %v", stallLimit)
		}
	}
	// ...so the next caller is rejected at the door.
	if _, st := acquireWithin(t, a, context.Background(), "overflow caller"); st != http.StatusTooManyRequests {
		t.Errorf("overflow caller: status %d, want 429", st)
	}

	// Drain flushes the queued caller with 503; the slot holder must
	// release before beginDrain can return.
	done := make(chan struct{})
	go func() {
		a.beginDrain()
		close(done)
	}()
	if st := recvWithin(t, queued, "queued caller after drain"); st != http.StatusServiceUnavailable {
		t.Errorf("queued caller after drain: status %d, want 503", st)
	}
	release()
	recvWithin(t, done, "beginDrain after the slot holder released")
}

// TestCancelledClientStopsChase sends a request whose context is
// already cancelled. Depending on which select arm wins, the job either
// never starts (client-gone: nothing written) or runs with the cancel
// channel wired through to the chase — in which case it must stop
// before the uncancelled run's step count.
func TestCancelledClientStopsChase(t *testing.T) {
	srv, ts := newTestServer(t, 2, 8, false)

	status, b, err := smokePost(ts.URL+"/ask", smokeAskBody(""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("baseline /ask: status %d err %v", status, err)
	}
	var baseline askResponse
	if err := json.Unmarshal(b, &baseline); err != nil {
		t.Fatalf("baseline decode: %v", err)
	}
	if baseline.Steps < 2 {
		t.Fatalf("fixture too small: baseline took %d steps", baseline.Steps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/ask",
		strings.NewReader(string(smokeAskBody("")))).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, req)

	if rec.Body.Len() == 0 {
		// Client-gone path: the job never started and was only counted.
		if got := srv.stats.clientGone.Load(); got != 1 {
			t.Errorf("client_gone = %d, want 1", got)
		}
		return
	}
	var r askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatalf("cancelled response decode: %v (body %q)", err, rec.Body.String())
	}
	if r.Steps >= baseline.Steps {
		t.Errorf("cancelled chase ran %d steps, baseline %d — cancel channel not wired through",
			r.Steps, baseline.Steps)
	}
}

// TestDrainStress is the graceful-shutdown race check (run under
// -race): concurrent clients hammer /ask, and a poller /stats, while
// the server drains mid-flight. Invariants: every response is a
// complete 200 answer or a clean 429/503 rejection; every admitted job
// completes (none dropped); and no job is admitted after drain returns.
func TestDrainStress(t *testing.T) {
	srv, ts := newTestServer(t, 2, 64, false)
	body := smokeAskBody("")

	type outcome struct {
		status   int
		err      error
		complete bool // 200 bodies only: decoded to a full answer
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, b, err := smokePost(ts.URL+"/ask", body)
				o := outcome{status: status, err: err}
				if err == nil && status == http.StatusOK {
					var r askResponse
					o.complete = json.Unmarshal(b, &r) == nil && r.Rewrite != ""
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
				if status == http.StatusServiceUnavailable {
					return // drained: this client is done
				}
			}
		}()
	}
	// A poller reads /stats throughout, so -race also sees every counter
	// and gauge read while the handlers update them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var stats statsResponse
			if err := smokeGet(ts.URL+"/stats", &stats); err != nil {
				t.Errorf("/stats under stress: %v", err)
				return
			}
		}
	}()

	// Let real work get admitted, then drain mid-flight.
	for srv.stats.admitted.Load() < 16 {
		time.Sleep(time.Millisecond)
	}
	srv.drain()
	admitted := srv.stats.admitted.Load()
	completed := srv.stats.completed.Load()
	close(stop)
	wg.Wait()

	// When drain returns, every admitted job has already answered: the
	// counters are frozen and balanced (the fixture job cannot fail).
	if admitted != completed {
		t.Errorf("drain dropped in-flight jobs: admitted %d, completed %d", admitted, completed)
	}
	if errs := srv.stats.jobErrors.Load(); errs != 0 {
		t.Errorf("job errors under stress: %d", errs)
	}
	if now := srv.stats.admitted.Load(); now != admitted {
		t.Errorf("job admitted after drain returned: %d -> %d", admitted, now)
	}

	status, _, err := smokePost(ts.URL+"/ask", body)
	if err != nil || status != http.StatusServiceUnavailable {
		t.Errorf("post-drain probe: status %d err %v, want 503", status, err)
	}
	if now := srv.stats.admitted.Load(); now != admitted {
		t.Errorf("post-drain probe was admitted: %d -> %d", admitted, now)
	}

	for i, o := range outcomes {
		switch {
		case o.err != nil:
			t.Errorf("request %d: transport error %v", i, o.err)
		case o.status == http.StatusOK && !o.complete:
			t.Errorf("request %d: 200 with incomplete body", i)
		case o.status != http.StatusOK &&
			o.status != http.StatusTooManyRequests &&
			o.status != http.StatusServiceUnavailable:
			t.Errorf("request %d: unexpected status %d", i, o.status)
		}
	}
	if srv.stats.completed.Load() == 0 {
		t.Error("stress test exercised nothing: zero completed jobs")
	}
}

// TestSmokeEndToEnd runs the smoke self-exercise (smoke_test.go),
// covering every endpoint, the /stats accounting, and the drain
// handshake in one go — once per answer-cache mode, since the exact
// accounting differs.
func TestSmokeEndToEnd(t *testing.T) {
	for _, memo := range []int{0, 4096} {
		cfg := chase.DefaultConfig()
		cfg.AnswerCacheCap = memo
		if err := runSmoke(cfg, 2, 8); err != nil {
			t.Fatalf("smoke (answer cache cap %d): %v", memo, err)
		}
	}
}

// TestLoadHandlesSnapshot pins the resident-graph loading path over
// both on-disk formats: the same graph served from JSON and from a
// PLL-embedded binary snapshot, with /stats reporting each handle's
// provenance.
func TestLoadHandlesSnapshot(t *testing.T) {
	f := datagen.NewFig1()
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "g.json")
	var buf bytes.Buffer
	if err := f.G.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "g.snap")
	buf.Reset()
	if err := f.G.WriteSnapshot(&buf, distindex.NewPLL(f.G).Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := chase.DefaultConfig()
	handles, err := loadHandles([]string{"j=" + jsonPath, "s=" + snapPath}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 2 {
		t.Fatalf("got %d handles", len(handles))
	}
	for _, h := range handles {
		switch h.name {
		case "j":
			if h.source != "json" || h.snapVersion != 0 || h.pllRestored {
				t.Errorf("json handle provenance: %+v", h)
			}
		case "s":
			if h.source != "snapshot" || h.snapVersion != graph.SnapshotVersion || !h.pllRestored {
				t.Errorf("snapshot handle provenance: %+v", h)
			}
		}
		if h.g.NumNodes() != f.G.NumNodes() || h.g.NumEdges() != f.G.NumEdges() {
			t.Errorf("handle %q shape %v, want %v", h.name, h.g, f.G)
		}
	}

	srv := newServer(handles, 1, 4, 30*time.Second)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	var stats statsResponse
	if err := smokeGet(ts.URL+"/stats", &stats); err != nil {
		t.Fatal(err)
	}
	s := stats.Graphs["s"]
	if s.Source != "snapshot" || s.SnapshotVersion != graph.SnapshotVersion || !s.PLLRestored {
		t.Errorf("/stats snapshot entry: %+v", s)
	}
	if s.Nodes != f.G.NumNodes() || s.Edges != f.G.NumEdges() || s.LoadMS < 0 {
		t.Errorf("/stats snapshot residency: %+v", s)
	}
	if j := stats.Graphs["j"]; j.Source != "json" || j.PLLRestored {
		t.Errorf("/stats json entry: %+v", j)
	}

	// Both residents answer the fixture question identically.
	for _, name := range []string{"j", "s"} {
		body := map[string]interface{}{
			"graph":    name,
			"query":    json.RawMessage(smokeQueryJSON),
			"exemplar": json.RawMessage(smokeExemplarJSON),
		}
		bb, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		var r askResponse
		if err := smokePostJSON(ts.URL+"/ask", bb, &r); err != nil {
			t.Fatalf("/ask over %q: %v", name, err)
		}
		if r.Steps < 1 || r.Rewrite == "" {
			t.Errorf("/ask over %q: empty outcome %+v", name, r)
		}
	}

	if _, err := loadHandles([]string{"bad"}, cfg); err == nil {
		t.Error("malformed -graph spec accepted")
	}
	if _, err := loadHandles([]string{"a=" + jsonPath, "a=" + snapPath}, cfg); err == nil {
		t.Error("duplicate -graph name accepted")
	}
	if _, err := loadHandles([]string{"x=" + filepath.Join(dir, "missing")}, cfg); err == nil {
		t.Error("missing graph file accepted")
	}
}

// normalizeResponse strips the timing field so two answers can be
// compared for semantic byte-identity: elapsed_ms is wall clock and
// legitimately differs between a cached and an uncached serve.
func normalizeResponse(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("normalize: %v (%s)", err, raw)
	}
	delete(m, "elapsed_ms")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAnswerCacheResponsesIdenticalOverHTTP: through the decoder, the
// memo and the encoder, the same question gets the same bytes whether
// it is chased with the answer cache off, chased as a memo miss, or
// served as a memo hit (TestMemoOffIdentical pins this at the Session
// level only).
func TestAnswerCacheResponsesIdenticalOverHTTP(t *testing.T) {
	_, off := newTestServer(t, 2, 8, false)
	onSrv, on := newTestServer(t, 2, 8, true)
	post := func(url string) []byte {
		t.Helper()
		status, b, err := smokePost(url, smokeAskBody(""))
		if err != nil || status != http.StatusOK {
			t.Fatalf("POST %s: status %d, err %v: %s", url, status, err, b)
		}
		return normalizeResponse(t, b)
	}
	for _, ep := range []string{"/ask", "/askfast", "/why", "/whyempty", "/whymany"} {
		want := post(off.URL + ep)
		miss := post(on.URL + ep)
		hit := post(on.URL + ep)
		if !bytes.Equal(want, miss) || !bytes.Equal(want, hit) {
			t.Errorf("%s: cache-on response differs from cache-off\noff:  %s\nmiss: %s\nhit:  %s", ep, want, miss, hit)
		}
	}
	// The second post of each pair must really have been a hit; /ask
	// and /why resolve to the same question, so ten posts miss four times.
	ac := onSrv.graphs["fig1"].session.Counters().AnswerCache
	if ac.Hits != 6 || ac.Misses != 4 {
		t.Errorf("answer cache hits/misses = %d/%d, want 6/4", ac.Hits, ac.Misses)
	}
}
