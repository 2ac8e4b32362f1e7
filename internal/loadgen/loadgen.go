// Package loadgen is the closed-loop HTTP load generator behind
// cmd/wqe-loadgen (the repo benchmark's serving workloads drive
// wqe-serve with clients of their own): N concurrent clients each
// issue one request, wait for the response, and immediately issue the
// next (the closed-loop discipline of the FalkorDB benchmark harness —
// offered load adapts to server capacity instead of piling up).
//
// Each client draws its endpoints from a query-mix spec (ratios over
// the serving endpoints, sampled through a CDF with a per-client seeded
// generator, so runs are reproducible per seed) and its payloads
// uniformly from a pool. An optional target-RPS pacer throttles the
// fleet globally; a warmup window excludes cold-start requests from the
// report. Latency is recorded into the same log-linear histograms the
// server's /stats uses (internal/hist), so client-side and server-side
// percentiles are directly comparable.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"wqe/internal/hist"
	"wqe/internal/par"
)

// Payload is one (query, exemplar) pair a client can ask about.
type Payload struct {
	Query    json.RawMessage `json:"query"`
	Exemplar json.RawMessage `json:"exemplar"`
}

// Options configures one load-generation run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Graph names the resident graph every request targets.
	Graph string
	// Mix maps endpoints (with or without the leading slash) to relative
	// ratios, e.g. {"/ask": 3, "/why": 1}. Ratios are normalized; they
	// need not sum to anything.
	Mix map[string]float64
	// Pool is the payload set clients sample uniformly. At least one.
	Pool []Payload
	// Clients is the number of concurrent closed-loop clients (≥ 1).
	Clients int
	// Duration is the total run length, warmup included.
	Duration time.Duration
	// Warmup excludes the run's first window from the report: requests
	// *started* before it ends are issued but not recorded.
	Warmup time.Duration
	// TargetRPS, when positive, paces the whole fleet to the target
	// request rate; zero runs the closed loop unthrottled.
	TargetRPS float64
	// MaxRequests, when positive, stops the run after that many requests
	// have been issued fleet-wide, even if Duration remains.
	MaxRequests int64
	// Seed makes the endpoint/payload sampling reproducible: client i
	// uses Seed+i.
	Seed int64
	// Client is the HTTP client to use; nil builds one with sensible
	// keep-alive defaults for Clients connections.
	Client *http.Client
}

// EndpointReport is one endpoint's share of the run. Quantiles are
// upper bounds in ms (bucket edges within 12.5 % of the true quantile,
// clamped to the observed max) and cover successful (HTTP 200) requests
// only.
type EndpointReport struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Report is the run's outcome: achieved throughput over the measured
// (post-warmup) window, the error-rate breakdown by status code
// (transport failures count under "error"), and per-endpoint latency.
type Report struct {
	Clients     int                       `json:"clients"`
	DurationMS  float64                   `json:"duration_ms"`
	WarmupMS    float64                   `json:"warmup_ms"`
	TargetRPS   float64                   `json:"target_rps,omitempty"`
	Seed        int64                     `json:"seed"`
	Requests    int64                     `json:"requests"`
	AchievedRPS float64                   `json:"achieved_rps"`
	ErrorRate   float64                   `json:"error_rate"`
	Status      map[string]int64          `json:"status"`
	Endpoints   map[string]EndpointReport `json:"endpoints"`
}

var (
	errNoMix     = errors.New("loadgen: mix needs at least one endpoint with a positive ratio")
	errNoPool    = errors.New("loadgen: payload pool is empty")
	errNoBaseURL = errors.New("loadgen: base URL is empty")
	errNoStop    = errors.New("loadgen: need a positive duration or max request count")
)

// mixEntry is one endpoint's slot in the sampling CDF.
type mixEntry struct {
	endpoint string
	cum      float64 // cumulative normalized ratio, ascending
}

// buildCDF normalizes the mix into a cumulative distribution over
// endpoints sorted by name, so sampling is reproducible regardless of
// map iteration order.
func buildCDF(mix map[string]float64) ([]mixEntry, error) {
	ratios := make(map[string]float64, len(mix))
	for name, ratio := range mix {
		if ratio <= 0 {
			continue
		}
		if len(name) == 0 || name[0] != '/' {
			name = "/" + name
		}
		ratios[name] += ratio
	}
	names := make([]string, 0, len(ratios))
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0.0
	entries := make([]mixEntry, 0, len(names))
	for _, name := range names {
		total += ratios[name]
		entries = append(entries, mixEntry{endpoint: name, cum: total})
	}
	if len(entries) == 0 {
		return nil, errNoMix
	}
	for i := range entries {
		entries[i].cum /= total
	}
	return entries, nil
}

// sample picks an endpoint by CDF inversion.
func sample(entries []mixEntry, r float64) string {
	for i := range entries {
		if r < entries[i].cum {
			return entries[i].endpoint
		}
	}
	return entries[len(entries)-1].endpoint
}

// tally is one client's private accounting, merged after the run so
// the request loop touches no shared locks (the shared histograms are
// lock-free).
type tally struct {
	status    map[string]int64
	count     map[string]int64
	errors    map[string]int64
	requests  int64
	errsTotal int64
}

func newTally() *tally {
	return &tally{status: map[string]int64{}, count: map[string]int64{}, errors: map[string]int64{}}
}

// Run executes one closed-loop load generation against a live server
// and returns the measured report.
func Run(opt Options) (Report, error) {
	if opt.BaseURL == "" {
		return Report{}, errNoBaseURL
	}
	if len(opt.Pool) == 0 {
		return Report{}, errNoPool
	}
	if opt.Duration <= 0 && opt.MaxRequests <= 0 {
		return Report{}, errNoStop
	}
	cdf, err := buildCDF(opt.Mix)
	if err != nil {
		return Report{}, err
	}
	clients := opt.Clients
	if clients < 1 {
		clients = 1
	}
	httpc := opt.Client
	if httpc == nil {
		tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
		httpc = &http.Client{Transport: tr}
	}

	// Pre-render every payload's request body once; the loop only reads.
	bodies := make([][]byte, len(opt.Pool))
	for i, p := range opt.Pool {
		body, err := json.Marshal(struct {
			Graph    string          `json:"graph"`
			Query    json.RawMessage `json:"query"`
			Exemplar json.RawMessage `json:"exemplar"`
		}{opt.Graph, p.Query, p.Exemplar})
		if err != nil {
			return Report{}, err
		}
		bodies[i] = body
	}

	hists := map[string]*hist.Hist{}
	for _, e := range cdf {
		hists[e.endpoint] = &hist.Hist{}
	}

	//lint:ignore detsource load generation measures wall-clock latency; timestamps never influence ranking
	now := time.Now
	start := now()
	warmupEnd := start.Add(opt.Warmup)
	deadline := start.Add(opt.Duration)
	var issued atomic.Int64 // fleet-wide, feeds the pacer and MaxRequests

	tallies := make([]*tally, clients)
	par.ForEach(clients, clients, func(c int) {
		rng := rand.New(rand.NewSource(opt.Seed + int64(c)))
		t := newTally()
		tallies[c] = t
		for {
			n := issued.Add(1) - 1
			if opt.MaxRequests > 0 && n >= opt.MaxRequests {
				return
			}
			if opt.TargetRPS > 0 {
				// Global pacer: request n is due at start + n/RPS; sleep
				// out any lead the fleet has built up.
				due := start.Add(time.Duration(float64(n) / opt.TargetRPS * float64(time.Second)))
				if lead := due.Sub(now()); lead > 0 {
					time.Sleep(lead)
				}
			}
			reqStart := now()
			if opt.Duration > 0 && !reqStart.Before(deadline) {
				return
			}
			endpoint := sample(cdf, rng.Float64())
			body := bodies[rng.Intn(len(bodies))]

			resp, err := httpc.Post(opt.BaseURL+endpoint, "application/json", bytes.NewReader(body))
			var status string
			ok := false
			if err != nil {
				status = "error"
			} else {
				status = strconv.Itoa(resp.StatusCode)
				ok = resp.StatusCode == http.StatusOK
				// Drain so the connection is reusable; a short read only
				// costs that reuse, never correctness.
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					ok = false
					status = "error"
				}
				if err := resp.Body.Close(); err != nil && ok {
					ok = false
					status = "error"
				}
			}
			if reqStart.Before(warmupEnd) {
				continue // warmup: issued but not recorded
			}
			t.requests++
			t.status[status]++
			t.count[endpoint]++
			if ok {
				hists[endpoint].Observe(now().Sub(reqStart))
			} else {
				t.errors[endpoint]++
				t.errsTotal++
			}
		}
	})
	end := now()

	rep := Report{
		Clients:    clients,
		DurationMS: float64(end.Sub(start)) / float64(time.Millisecond),
		WarmupMS:   float64(opt.Warmup) / float64(time.Millisecond),
		TargetRPS:  opt.TargetRPS,
		Seed:       opt.Seed,
		Status:     map[string]int64{},
		Endpoints:  map[string]EndpointReport{},
	}
	var errsTotal int64
	for _, t := range tallies {
		rep.Requests += t.requests
		errsTotal += t.errsTotal
		for status, n := range t.status {
			rep.Status[status] += n
		}
	}
	for _, e := range cdf {
		er := EndpointReport{}
		for _, t := range tallies {
			er.Count += t.count[e.endpoint]
			er.Errors += t.errors[e.endpoint]
		}
		s := hists[e.endpoint].Snapshot()
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		er.P50MS = ms(s.Quantile(0.50))
		er.P95MS = ms(s.Quantile(0.95))
		er.P99MS = ms(s.Quantile(0.99))
		er.MaxMS = ms(s.Max())
		rep.Endpoints[e.endpoint] = er
	}
	if window := end.Sub(warmupEnd); window > 0 && rep.Requests > 0 {
		rep.AchievedRPS = float64(rep.Requests) / window.Seconds()
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(errsTotal) / float64(rep.Requests)
	}
	return rep, nil
}
