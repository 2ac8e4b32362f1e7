package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wqe/internal/chase"
	"wqe/internal/graph"
	"wqe/internal/hist"
	"wqe/internal/jsonscan"
)

// askEndpoints are the serving endpoints whose latency /stats reports;
// the order is the stable /stats rendering order.
var askEndpoints = []string{"/ask", "/askall", "/askfast", "/why", "/whyempty", "/whymany"}

// statusClientGone is the non-standard status (nginx's 499) recorded
// when a request's client disconnected while the job waited for a
// slot. Nothing is written to the closed connection; the code only
// feeds stats.
const statusClientGone = 499

// graphHandle is one resident graph: its long-lived session (shared
// distance oracle, star-view cache) plus the residency
// metadata /graphs and /stats report.
type graphHandle struct {
	name    string
	g       *graph.Graph
	session *chase.Session

	// Residency provenance for /stats: which on-disk format the graph
	// loaded from ("json", "snapshot", or "builtin" for fixtures), the
	// snapshot format version (0 for the others), whether the distance
	// index was restored from embedded PLL labels rather than built,
	// and the load wall time.
	source      string
	snapVersion uint32
	pllRestored bool
	loadMS      float64
}

// admission is the server's bounded job queue: maxRun execution slots
// plus a bounded waiting room. A request is admitted (or rejected with
// 429/503) in one locked step, then waits for a slot with its own
// context — so a client that gives up while queued frees its place
// without ever starting a chase, and drain can flush the whole waiting
// room at once.
type admission struct {
	slots chan struct{} // execution slots; buffered, cap = maxRun

	mu       sync.Mutex
	waiting  int  // admitted, not yet running (guarded by mu)
	running  int  // holding an execution slot (guarded by mu)
	maxQueue int  // waiting-room bound (immutable)
	draining bool // no admissions, no new job starts (guarded by mu)

	drain    chan struct{}  // closed when drain begins
	inflight sync.WaitGroup // one count per admitted request
}

func newAdmission(maxRun, maxQueue int) *admission {
	if maxRun < 1 {
		maxRun = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	a := &admission{
		slots:    make(chan struct{}, maxRun),
		maxQueue: maxQueue,
		drain:    make(chan struct{}),
	}
	for i := 0; i < maxRun; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// acquire admits one request and waits for an execution slot. It
// returns a release func and HTTP status 0 on success; otherwise a nil
// release and the rejection status: 429 when the waiting room is full,
// 503 once drain began, statusClientGone when the caller's context
// ended first. The no-start-after-drain guarantee is exact: the final
// draining check happens under the same mutex beginDrain flips the flag
// under, so any job that proceeds was admitted to run strictly before
// drain began.
func (a *admission) acquire(ctx context.Context) (release func(), status int) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, http.StatusServiceUnavailable
	}
	if a.waiting >= a.maxQueue {
		a.mu.Unlock()
		return nil, http.StatusTooManyRequests
	}
	a.waiting++
	a.inflight.Add(1)
	a.mu.Unlock()

	leave := func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
		a.inflight.Done()
	}

	select {
	case <-a.slots:
	case <-ctx.Done():
		leave()
		return nil, statusClientGone
	case <-a.drain:
		leave()
		return nil, http.StatusServiceUnavailable
	}

	// Slot in hand — but drain may have begun while this request was
	// queued. Re-check under the lock so no job ever *starts* after
	// beginDrain returns ownership of the flag.
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		a.slots <- struct{}{}
		leave()
		return nil, http.StatusServiceUnavailable
	}
	a.waiting--
	a.running++
	a.mu.Unlock()

	return func() {
		a.mu.Lock()
		a.running--
		a.mu.Unlock()
		a.slots <- struct{}{}
		a.inflight.Done()
	}, 0
}

// beginDrain stops admissions and new job starts, then waits for every
// in-flight request — running or queued — to finish or bail. When it
// returns, zero jobs are running and none can start.
func (a *admission) beginDrain() {
	a.mu.Lock()
	already := a.draining
	a.draining = true
	a.mu.Unlock()
	if !already {
		close(a.drain)
	}
	a.inflight.Wait()
}

// snapshot reads the queue gauges for /stats.
func (a *admission) snapshot() (waiting, running int, draining bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting, a.running, a.draining
}

// serverStats are the server-level atomic request counters (/stats).
type serverStats struct {
	admitted      atomic.Int64 // requests that got an execution slot
	completed     atomic.Int64 // jobs that ran to an HTTP response
	rejectedFull  atomic.Int64 // 429: waiting room full
	rejectedDrain atomic.Int64 // 503: drain in progress
	clientGone    atomic.Int64 // client vanished while queued
	badRequest    atomic.Int64 // malformed payloads
	jobErrors     atomic.Int64 // jobs whose chase returned an error
	writeErrs     atomic.Int64 // responses the client never received
}

// server routes Why-question requests over one or more resident graphs
// through a bounded admission queue into their sessions.
type server struct {
	graphs  map[string]*graphHandle
	names   []string // sorted graph names (stable /graphs, /stats order)
	queue   *admission
	clock   func() time.Time
	started time.Time
	// timeout is the default per-request budget when the payload sets
	// none; zero means unlimited. It anchors at submission (admission
	// into the queue), so queue wait counts against it.
	timeout time.Duration
	stats   serverStats
	// lat holds one latency histogram per serving endpoint (the
	// askEndpoints set), recording the full request wall time — queue
	// wait included, since that is what a client observes.
	lat map[string]*hist.Hist
}

func newServer(handles []*graphHandle, maxRun, maxQueue int, timeout time.Duration) *server {
	s := &server{
		graphs:  map[string]*graphHandle{},
		queue:   newAdmission(maxRun, maxQueue),
		clock:   time.Now,
		timeout: timeout,
		lat:     map[string]*hist.Hist{},
	}
	for _, ep := range askEndpoints {
		s.lat[ep] = &hist.Hist{}
	}
	s.started = s.clock()
	for _, h := range handles {
		s.graphs[h.name] = h
		s.names = append(s.names, h.name)
	}
	sort.Strings(s.names)
	return s
}

// mux builds the endpoint table. Every ask-like endpoint shares one
// handler parameterized by the algorithm override.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /graphs", s.handleGraphs)
	m.HandleFunc("GET /stats", s.handleStats)
	m.HandleFunc("POST /ask", s.timed("/ask", s.askHandler("", false)))
	m.HandleFunc("POST /askfast", s.timed("/askfast", s.askHandler("heu", false)))
	m.HandleFunc("POST /why", s.timed("/why", s.askHandler("answ", true)))
	m.HandleFunc("POST /whyempty", s.timed("/whyempty", s.askHandler("whyempty", true)))
	m.HandleFunc("POST /whymany", s.timed("/whymany", s.askHandler("whymany", true)))
	m.HandleFunc("POST /askall", s.timed("/askall", s.handleAskAll))
	return m
}

// timed wraps a serving handler to record its wall-clock latency into
// the endpoint's histogram. Every outcome counts — rejections and bad
// requests included — because the histogram reports what clients see.
func (s *server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		start := s.clock()
		h(rw, r)
		s.lat[endpoint].Observe(s.clock().Sub(start))
	}
}

// askResponse is one answered Why-question.
type askResponse struct {
	Graph     string   `json:"graph"`
	Algo      string   `json:"algo"`
	Rewrite   string   `json:"rewrite"`
	Ops       []string `json:"ops"`
	Cost      float64  `json:"cost"`
	Closeness float64  `json:"closeness"`
	Satisfied bool     `json:"satisfied"`
	Matches   []int64  `json:"matches"`
	Steps     int      `json:"steps"`
	States    int      `json:"states"`
	Stop      string   `json:"stop"`
	ElapsedMS float64  `json:"elapsed_ms"`
	// Diff and Explanation are filled on the explaining endpoints
	// (/why, /whyempty, /whymany).
	Diff        []string `json:"diff,omitempty"`
	Explanation string   `json:"explanation,omitempty"`
}

// askHandler builds the handler for one single-question endpoint.
// forceAlgo overrides the payload's algo ("" keeps it); explain adds
// the differential table and rendered explanation to the response.
func (s *server) askHandler(forceAlgo string, explain bool) http.HandlerFunc {
	variant := chase.BodyPlain
	if explain {
		variant = chase.BodyExplained
	}
	return func(rw http.ResponseWriter, r *http.Request) {
		submit := s.clock()
		var req askRequest
		if !s.decodeBody(rw, r, func(sc *jsonscan.Reader) error { return decodeQuestion(sc, &req) }) {
			return
		}
		if forceAlgo != "" {
			req.Job.Algo = forceAlgo
		}
		h, job, err := s.compileJob(&req, submit, r.Context().Done())
		if err != nil {
			s.badRequestf(rw, "%v", err)
			return
		}

		release, status := s.queue.acquire(r.Context())
		if status != 0 {
			s.reject(rw, status)
			return
		}
		defer release()
		s.stats.admitted.Add(1)

		// A memo hit sends the body its entry keeps for this variant,
		// rendered on the entry's first hit; anything else renders here.
		res, body := h.session.RunBody(job, variant, func(res chase.BatchResult) []byte {
			return encodeJSON(answerJSON(h, job, res, explain))
		})
		if res.Err != nil {
			s.stats.jobErrors.Add(1)
			s.writeError(rw, http.StatusUnprocessableEntity, res.Err.Error())
			return
		}
		s.stats.completed.Add(1)
		if body != nil {
			s.send(rw, http.StatusOK, body.Bytes, body.Length)
			return
		}
		s.writeJSON(rw, answerJSON(h, job, res, explain))
	}
}

// compileJob resolves the request's graph and turns the decoded question
// into a session job. cancel is the request context's done channel: it
// stops the chase mid-beam when the client disconnects.
func (s *server) compileJob(req *askRequest, submit time.Time, cancel <-chan struct{}) (*graphHandle, chase.BatchJob, error) {
	h, err := s.handleFor(req.Graph)
	if err != nil {
		return nil, chase.BatchJob{}, err
	}
	if req.err != nil {
		return nil, chase.BatchJob{}, req.err
	}
	job := req.Job
	job.Cancel = cancel
	// Anchor the request budget at submission so queue wait counts.
	limit := s.timeout
	if job.TimeLimit > 0 {
		limit = job.TimeLimit
	}
	job.TimeLimit = 0
	if limit > 0 {
		job.Deadline = submit.Add(limit)
	}
	return h, job, nil
}

func (s *server) handleFor(name string) (*graphHandle, error) {
	if name == "" && len(s.names) == 1 {
		name = s.names[0] // single-tenant sugar: the graph is implied
	}
	h, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("unknown graph %q (resident: %v)", name, s.names)
	}
	return h, nil
}

// answerJSON renders the result of one batch job. It reads only the
// result, the job's resolved algorithm, the handle's name and graph, and
// explain, so the body a memo entry keeps for a variant is the same for
// every request that hits the entry.
func answerJSON(h *graphHandle, job chase.BatchJob, res chase.BatchResult, explain bool) askResponse {
	a := res.Answer
	out := askResponse{
		Graph:     h.name,
		Algo:      job.AlgoName(),
		Rewrite:   a.Query.String(),
		Ops:       []string{},
		Cost:      a.Cost,
		Closeness: a.Closeness,
		Satisfied: a.Satisfied,
		Matches:   []int64{},
		Steps:     res.Steps,
		States:    res.States,
		Stop:      res.Stop,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	for _, o := range a.Ops {
		out.Ops = append(out.Ops, o.String())
	}
	for _, v := range a.Matches {
		out.Matches = append(out.Matches, int64(v))
	}
	if explain {
		out.Diff = []string{}
		for _, d := range a.Diff {
			out.Diff = append(out.Diff, d.String())
		}
		out.Explanation = a.Explain(h.g)
	}
	return out
}

type askAllResponse struct {
	Graph   string          `json:"graph"`
	Results []askAllResult  `json:"results"`
	Stats   askAllStatsJSON `json:"stats"`
}

// askAllResult is one slot of the batch outcome: the answer or the
// per-job error, in submission order.
type askAllResult struct {
	Error  string       `json:"error,omitempty"`
	Answer *askResponse `json:"answer,omitempty"`
}

type askAllStatsJSON struct {
	Jobs        int     `json:"jobs"`
	Failed      int     `json:"failed"`
	Cancelled   int     `json:"cancelled"`
	Workers     int     `json:"workers"`
	Steps       int64   `json:"steps"`
	States      int64   `json:"states"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

func (s *server) handleAskAll(rw http.ResponseWriter, r *http.Request) {
	submit := s.clock()
	var req askAllRequest
	if !s.decodeBody(rw, r, func(sc *jsonscan.Reader) error { return decodeAskAll(sc, &req) }) {
		return
	}
	h, jobs, err := s.compileAll(&req, submit, r.Context().Done())
	if err != nil {
		s.badRequestf(rw, "%v", err)
		return
	}

	// One admission slot covers the whole batch: AskAll runs at most
	// -workers of its jobs at once, each on one goroutine.
	release, status := s.queue.acquire(r.Context())
	if status != 0 {
		s.reject(rw, status)
		return
	}
	defer release()
	s.stats.admitted.Add(1)

	results, stats := h.session.AskAll(jobs)
	out := askAllResponse{
		Graph:   h.name,
		Results: make([]askAllResult, len(results)),
		Stats: askAllStatsJSON{
			Jobs:        stats.Jobs,
			Failed:      stats.Failed,
			Cancelled:   stats.Cancelled,
			Workers:     stats.Workers,
			Steps:       stats.Steps,
			States:      stats.States,
			CacheHits:   stats.CacheHits,
			CacheMisses: stats.CacheMisses,
			ElapsedMS:   float64(stats.Elapsed) / float64(time.Millisecond),
		},
	}
	for i, res := range results {
		if res.Err != nil {
			s.stats.jobErrors.Add(1)
			out.Results[i] = askAllResult{Error: res.Err.Error()}
			continue
		}
		a := answerJSON(h, jobs[i], res, false)
		out.Results[i] = askAllResult{Answer: &a}
	}
	s.stats.completed.Add(1)
	s.writeJSON(rw, out)
}

// compileAll resolves an /askall payload's graph and compiles each of
// its jobs over it, each with cancel: a client gone mid-batch stops all.
func (s *server) compileAll(req *askAllRequest, submit time.Time, cancel <-chan struct{}) (*graphHandle, []chase.BatchJob, error) {
	if len(req.Jobs) == 0 {
		return nil, nil, fmt.Errorf("askall needs a non-empty \"jobs\" array")
	}
	h, err := s.handleFor(req.Graph)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]chase.BatchJob, len(req.Jobs))
	for i := range req.Jobs {
		req.Jobs[i].Graph = h.name
		_, job, err := s.compileJob(&req.Jobs[i], submit, cancel)
		if err != nil {
			return nil, nil, fmt.Errorf("job #%d: %w", i+1, err)
		}
		jobs[i] = job
	}
	return h, jobs, nil
}

func (s *server) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	s.writeJSON(rw, map[string]string{"status": "ok"})
}

// graphInfo is one /graphs row.
type graphInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

func (s *server) handleGraphs(rw http.ResponseWriter, r *http.Request) {
	out := make([]graphInfo, 0, len(s.names))
	for _, name := range s.names {
		h := s.graphs[name]
		out = append(out, graphInfo{Name: name, Nodes: h.g.NumNodes(), Edges: h.g.NumEdges()})
	}
	s.writeJSON(rw, out)
}

// statsResponse is the /stats payload: queue gauges, request counters,
// and each resident graph's residency metadata plus its session's
// cumulative counters (questions, steps, and the star-view cache's
// full atomic set).
type statsResponse struct {
	UptimeMS float64                   `json:"uptime_ms"`
	Queue    queueStatsJSON            `json:"queue"`
	Requests requestStatsJSON          `json:"requests"`
	Graphs   map[string]graphStatsJSON `json:"graphs"`
	// Endpoints reports per-endpoint request latency (count, quantile
	// upper bounds in ms) from the same log-linear histogram the load
	// generator uses, so server-side and client-side percentiles are
	// directly comparable.
	Endpoints map[string]endpointStatsJSON `json:"endpoints"`
}

// endpointStatsJSON is one endpoint's latency summary. The quantiles
// are upper bounds (bucket edges, within 12.5 % of the true quantile)
// clamped to the observed max; see internal/hist.
type endpointStatsJSON struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// endpointStats renders one histogram snapshot.
func endpointStats(h *hist.Hist) endpointStatsJSON {
	s := h.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return endpointStatsJSON{
		Count: s.Count(),
		P50MS: ms(s.Quantile(0.50)),
		P95MS: ms(s.Quantile(0.95)),
		P99MS: ms(s.Quantile(0.99)),
		MaxMS: ms(s.Max()),
	}
}

// graphStatsJSON is one resident graph's /stats entry: size and load
// provenance alongside the session counters.
type graphStatsJSON struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Source is "json", "snapshot", or "builtin"; SnapshotVersion is
	// the binary format version when Source is "snapshot".
	Source          string  `json:"source"`
	SnapshotVersion uint32  `json:"snapshot_version,omitempty"`
	PLLRestored     bool    `json:"pll_restored"`
	LoadMS          float64 `json:"load_ms"`
	chase.SessionCounters
}

type queueStatsJSON struct {
	Slots    int  `json:"slots"`
	QueueCap int  `json:"queue_cap"`
	Waiting  int  `json:"waiting"`
	Running  int  `json:"running"`
	Draining bool `json:"draining"`
}

type requestStatsJSON struct {
	Admitted      int64 `json:"admitted"`
	Completed     int64 `json:"completed"`
	RejectedFull  int64 `json:"rejected_full"`
	RejectedDrain int64 `json:"rejected_drain"`
	ClientGone    int64 `json:"client_gone"`
	BadRequest    int64 `json:"bad_request"`
	JobErrors     int64 `json:"job_errors"`
	WriteErrors   int64 `json:"write_errors"`
}

func (s *server) handleStats(rw http.ResponseWriter, r *http.Request) {
	waiting, running, draining := s.queue.snapshot()
	out := statsResponse{
		UptimeMS: float64(s.clock().Sub(s.started)) / float64(time.Millisecond),
		Queue: queueStatsJSON{
			Slots:    cap(s.queue.slots),
			QueueCap: s.queue.maxQueue,
			Waiting:  waiting,
			Running:  running,
			Draining: draining,
		},
		Requests: requestStatsJSON{
			Admitted:      s.stats.admitted.Load(),
			Completed:     s.stats.completed.Load(),
			RejectedFull:  s.stats.rejectedFull.Load(),
			RejectedDrain: s.stats.rejectedDrain.Load(),
			ClientGone:    s.stats.clientGone.Load(),
			BadRequest:    s.stats.badRequest.Load(),
			JobErrors:     s.stats.jobErrors.Load(),
			WriteErrors:   s.stats.writeErrs.Load(),
		},
		Graphs:    map[string]graphStatsJSON{},
		Endpoints: map[string]endpointStatsJSON{},
	}
	for _, ep := range askEndpoints {
		out.Endpoints[ep] = endpointStats(s.lat[ep])
	}
	for _, name := range s.names {
		h := s.graphs[name]
		out.Graphs[name] = graphStatsJSON{
			Nodes:           h.g.NumNodes(),
			Edges:           h.g.NumEdges(),
			Source:          h.source,
			SnapshotVersion: h.snapVersion,
			PLLRestored:     h.pllRestored,
			LoadMS:          h.loadMS,
			SessionCounters: h.session.Counters(),
		}
	}
	s.writeJSON(rw, out)
}

// drain stops admissions and waits for every in-flight job; the
// SIGTERM path calls it before http.Server.Shutdown.
func (s *server) drain() { s.queue.beginDrain() }

// reject records and writes an admission rejection.
func (s *server) reject(rw http.ResponseWriter, status int) {
	switch status {
	case http.StatusTooManyRequests:
		s.stats.rejectedFull.Add(1)
		s.writeError(rw, status, "queue full, retry later")
	case http.StatusServiceUnavailable:
		s.stats.rejectedDrain.Add(1)
		s.writeError(rw, status, "server draining")
	case statusClientGone:
		// The client is gone; there is no one to write to.
		s.stats.clientGone.Add(1)
	}
}

func (s *server) badRequestf(rw http.ResponseWriter, format string, args ...interface{}) {
	s.stats.badRequest.Add(1)
	s.writeError(rw, http.StatusBadRequest, fmt.Sprintf(format, args...))
}

// writeError emits a JSON error envelope.
func (s *server) writeError(rw http.ResponseWriter, status int, msg string) {
	s.respond(rw, status, map[string]string{"error": msg})
}

// writeJSON emits a 200 JSON response.
func (s *server) writeJSON(rw http.ResponseWriter, v interface{}) {
	s.respond(rw, http.StatusOK, v)
}

// jsonBuf pairs a reusable buffer with an encoder bound to it, so the
// serving hot path allocates neither a marshal output slice nor an
// encoder per response.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() interface{} {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// jsonContentType is the shared Content-Type header value, assigned
// directly (keys already canonical) so the hot path skips Set's
// per-response slice allocation. net/http only reads header values.
var jsonContentType = []string{"application/json"}

// respond renders v into a pooled buffer and sends it with an exact
// Content-Length. Encoder.Encode appends a trailing newline, preserving
// the body bytes of the old Marshal-plus-newline path. An encode
// failure is effectively dead code (every value the server encodes is a
// plain struct/map of encodable fields) but stays handled.
func (s *server) respond(rw http.ResponseWriter, status int, v interface{}) {
	jb := jsonBufs.Get().(*jsonBuf)
	defer jsonBufs.Put(jb)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		jb.buf.Reset()
		jb.buf.WriteString("{\"error\":\"encode response\"}\n")
	}
	s.send(rw, status, jb.buf.Bytes(), []string{strconv.Itoa(jb.buf.Len())})
}

// encodeJSON renders v as respond sends it, into a new slice: the bytes
// a memo entry keeps. An encode failure returns nil, which a memo entry
// does not store.
func encodeJSON(v interface{}) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// send writes one JSON body with its Content-Length header value. A
// failed write means the client vanished mid-response, only worth
// counting.
func (s *server) send(rw http.ResponseWriter, status int, body []byte, length []string) {
	h := rw.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = length
	if status != http.StatusOK {
		rw.WriteHeader(status)
	}
	if _, err := rw.Write(body); err != nil {
		s.stats.writeErrs.Add(1)
	}
}
