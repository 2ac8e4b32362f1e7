package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"wqe/internal/chase"
	"wqe/internal/graph"
	"wqe/internal/par"
)

// serveClients is the closed-loop client count: one per CPU of the
// 2-CPU box the sizes were chosen on. It is fixed, not nproc, so a run
// on another machine measures the same workload.
const serveClients = 2

// graphName is the resident graph's name on the server.
const graphName = "g"

// buildServer compiles cmd/wqe-serve from the checkout's source into
// the build directory. go build is a no-op when it is up to date.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "wqe-serve")
	cmd := command("go", "build", "-o", bin, "./cmd/wqe-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wqe-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running wqe-serve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	// boot is exec → first 200 on /healthz: what an operator waits for.
	boot time.Duration
}

// startServer execs the server on an ephemeral port with defaults
// otherwise, takes the port from its "listening on" line, and waits
// for /healthz to answer 200.
func startServer(bin, snapshot string, cl *cleaner) (*server, error) {
	start := time.Now()
	cmd := command(bin, "-addr", "127.0.0.1:0", "-graph", graphName+"="+snapshot)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cl.addProc(cmd.Process)
	s := &server{cmd: cmd, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		// "wqe-serve: listening on 127.0.0.1:40123 (1 graphs, ...)"
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			s.base = "http://" + addr
			break
		}
	}
	if s.base == "" {
		s.stop()
		return nil, fmt.Errorf("wqe-serve exited before listening (scan: %v)", sc.Err())
	}
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("wqe-serve not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	s.boot = time.Since(start)
	return s, nil
}

// stop asks the server to drain (SIGTERM) and waits for it to exit;
// Wait also closes the stdout pipe.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	_ = s.cmd.Wait()                          // exit status of a drained server is not a result
}

// peakRSSMB is the server process's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Requests struct {
		Admitted     int64 `json:"admitted"`
		RejectedFull int64 `json:"rejected_full"`
		JobErrors    int64 `json:"job_errors"`
	} `json:"requests"`
	Graphs map[string]chase.SessionCounters `json:"graphs"`
}

func (s *server) stats() (*serverStats, error) {
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return &st, nil
}

// served is one pool question as the clients send it.
type served struct {
	endpoint string
	body     []byte
	truth    []int64
}

// requestBody is the single-question payload of cmd/wqe-serve.
type requestBody struct {
	Graph    string          `json:"graph"`
	Query    json.RawMessage `json:"query"`
	Exemplar json.RawMessage `json:"exemplar"`
	MaxSteps int             `json:"max_steps"`
}

func encodeRequests(qs []question, maxSteps int) ([]served, error) {
	out := make([]served, len(qs))
	for i, q := range qs {
		body, err := json.Marshal(requestBody{Graph: graphName, Query: q.Query, Exemplar: q.Exemplar, MaxSteps: maxSteps})
		if err != nil {
			return nil, err
		}
		out[i] = served{endpoint: q.Endpoint, body: body, truth: q.Truth}
	}
	return out, nil
}

// response is one completed request: which question, how long the
// client waited from send to the last body byte, and the body when the
// caller asked to keep it.
type response struct {
	idx     int
	sent    time.Time
	latency time.Duration
	status  int
	body    []byte
}

// post sends pool question idx and reads the whole response into buf.
// A transport failure is reported as status 0.
func (s *server) post(pool []served, idx int, buf *bytes.Buffer) response {
	q := pool[idx]
	r := response{idx: idx, sent: time.Now()}
	resp, err := s.client.Post(s.base+q.endpoint, "application/json", bytes.NewReader(q.body))
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			r.status = resp.StatusCode
		}
	}
	r.latency = time.Since(r.sent)
	return r
}

// drive runs `clients` closed-loop clients until next returns -1 for
// them: each sends a request, waits for the whole response, and only
// then asks next for its following question. keep(idx, body) sees every
// 200 body before the buffer is reused and returns what to retain (nil
// for nothing). Responses come back grouped by client.
func (s *server) drive(pool []served, clients int, next func(client int) int, keep func(idx int, body []byte) []byte) ([]response, time.Duration) {
	perClient := make([][]response, clients)
	start := time.Now()
	var g par.Group
	for c := 0; c < clients; c++ {
		c := c
		g.Go(func() {
			var buf bytes.Buffer
			for idx := next(c); idx >= 0; idx = next(c) {
				r := s.post(pool, idx, &buf)
				if r.status == http.StatusOK {
					r.body = keep(idx, buf.Bytes())
				}
				perClient[c] = append(perClient[c], r)
			}
		})
	}
	g.Wait()
	elapsed := time.Since(start)
	var all []response
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all, elapsed
}

// copyBody retains every response body.
func copyBody(_ int, body []byte) []byte { return append([]byte(nil), body...) }

// takeEach hands out pool indices lo..hi-1 once each, to whichever
// client asks first.
func takeEach(lo, hi int) func(int) int {
	var n atomic.Int64
	n.Store(int64(lo))
	return func(int) int {
		if i := int(n.Add(1)) - 1; i < hi {
			return i
		}
		return -1
	}
}

// untilDeadline wraps next so that no request starts after deadline.
func untilDeadline(deadline time.Time, next func(int) int) func(int) int {
	return func(c int) int {
		if !time.Now().Before(deadline) {
			return -1
		}
		return next(c)
	}
}

// resample draws pool indices uniformly, one seeded generator per
// client, up to limit draws per client (0 = unlimited).
func resample(poolSize int, seed int64, clients, limit int) func(int) int {
	rngs := make([]*rand.Rand, clients)
	drawn := make([]int, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed + int64(c)))
	}
	return func(c int) int {
		if limit > 0 && drawn[c] >= limit {
			return -1
		}
		drawn[c]++
		return rngs[c].Intn(poolSize)
	}
}

// answerBody is the part of the server's answer the benchmark checks
// and scores; elapsed_ms is the only field that is not a function of
// the question.
type answerBody struct {
	Rewrite     string   `json:"rewrite"`
	Ops         []string `json:"ops"`
	Cost        float64  `json:"cost"`
	Closeness   float64  `json:"closeness"`
	Satisfied   bool     `json:"satisfied"`
	Matches     []int64  `json:"matches"`
	Steps       int      `json:"steps"`
	States      int      `json:"states"`
	ElapsedMS   float64  `json:"elapsed_ms"`
	Diff        []string `json:"diff"`
	Explanation string   `json:"explanation"`
}

func decodeAnswer(body []byte) (answerBody, error) {
	var a answerBody
	err := json.Unmarshal(body, &a)
	return a, err
}

// sameAsLibrary compares a served answer with the library's answer to
// the same (question, algorithm, step cap), every field but elapsed_ms.
func sameAsLibrary(got answerBody, endpoint string, want asked, g *graph.Graph) error {
	a := want.answer
	exp := answerBody{
		Rewrite:   a.Query.String(),
		Ops:       []string{},
		Cost:      a.Cost,
		Closeness: a.Closeness,
		Satisfied: a.Satisfied,
		Matches:   nodeIDs(a.Matches),
		Steps:     want.stats.Steps,
		States:    want.stats.States,
	}
	for _, o := range a.Ops {
		exp.Ops = append(exp.Ops, o.String())
	}
	if endpoint != "/ask" && endpoint != "/askfast" { // the explaining endpoints
		for _, d := range a.Diff {
			exp.Diff = append(exp.Diff, d.String())
		}
		exp.Explanation = a.Explain(g)
	}
	got.ElapsedMS = 0
	if len(got.Diff) == 0 {
		got.Diff = nil // the server omits an empty table
	}
	gb, err := json.Marshal(got)
	if err != nil {
		return err
	}
	eb, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, eb) {
		return fmt.Errorf("served answer differs from library answer:\n served  %s\n library %s", gb, eb)
	}
	return nil
}
