package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"wqe/internal/chase"
	"wqe/internal/graph"
)

// bootServers measures server set-up setupRepeats times — exec to the
// first 200 on /healthz — and leaves the last server running.
func bootServers(bin string, in *inputs, cl *cleaner) (*server, []float64, error) {
	var srv *server
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		var err error
		if srv, err = startServer(bin, in.SnapshotPath, cl); err != nil {
			return nil, nil, err
		}
		setups = append(setups, srv.boot.Seconds())
	}
	return srv, setups, nil
}

// splitElapsed cuts a response body around its elapsed_ms value, the
// only part that is not a function of the question.
func splitElapsed(body []byte) (before, after []byte) {
	const key = `"elapsed_ms":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return body, nil
	}
	j := i + len(key)
	for j < len(body) && body[j] != ',' && body[j] != '}' {
		j++
	}
	return body[:i], body[j:]
}

func sameButElapsed(a, b []byte) bool {
	a1, a2 := splitElapsed(a)
	b1, b2 := splitElapsed(b)
	return bytes.Equal(a1, b1) && bytes.Equal(a2, b2)
}

// okLatenciesMS returns the latencies of the 200 responses.
func okLatenciesMS(rs []response) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.status == http.StatusOK {
			out = append(out, float64(r.latency)/float64(time.Millisecond))
		}
	}
	return out
}

// checkServed compares the kept bodies of up to limit responses (evenly
// spaced by pool index) with the library's answers.
func checkServed(rs []response, qs []question, ld *loaded, limit int, res *result) error {
	kept := make([]response, 0, len(rs))
	for _, r := range rs {
		if r.body != nil {
			kept = append(kept, r)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].idx < kept[j].idx })
	for _, i := range sampleIndices(len(kept), limit) {
		r := kept[i]
		cs, err := compileAll(qs[r.idx : r.idx+1])
		if err != nil {
			return err
		}
		compareServed(r, qs[r.idx].Endpoint, ask(ld.sess, cs[0]), ld.g, res)
	}
	return nil
}

// compareServed counts a failure unless response r is a 200 whose
// answer equals the library's answer want to the same question.
func compareServed(r response, endpoint string, want asked, g *graph.Graph, res *result) {
	if r.status != http.StatusOK || r.body == nil {
		res.fail("question %d: HTTP status %d", r.idx, r.status)
		return
	}
	if want.err != nil {
		res.fail("question %d: library: %v", r.idx, want.err)
		return
	}
	got, err := decodeAnswer(r.body)
	if err != nil {
		res.fail("question %d: decode response: %v", r.idx, err)
		return
	}
	if err := sameAsLibrary(got, endpoint, want, g); err != nil {
		res.fail("question %d (%s): %v", r.idx, endpoint, err)
	}
}

// jaccardOf scores one served body against the question's ground truth.
func jaccardOf(body []byte, truth []int64) (float64, error) {
	a, err := decodeAnswer(body)
	if err != nil {
		return 0, err
	}
	return jaccard(a.Matches, truth), nil
}

// serveTimed measures a serve workload's end-to-end metrics: set-up is
// the server's boot, the window is serveClients closed-loop clients,
// peak RSS is the server's.
func serveTimed(root string, in *inputs, w workload, cl *cleaner) (*result, error) {
	bin, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	pool, err := encodeRequests(in.Questions, w.maxSteps)
	if err != nil {
		return nil, err
	}
	srv, setups, err := bootServers(bin, in, cl)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	res := newResult()
	var rs, warm []response
	var elapsed time.Duration
	var jac []float64
	if w.repeat {
		// One untimed pass over every key fills the answer memo; each
		// timed response must then equal its key's warm-up response.
		warm, _ = srv.drive(pool, serveClients, takeEach(0, len(pool)), copyBody)
		expected := make([][]byte, len(pool))
		score := make([]float64, len(pool))
		for _, r := range warm {
			if r.body == nil {
				return nil, fmt.Errorf("warm-up of question %d failed with status %d", r.idx, r.status)
			}
			expected[r.idx] = r.body
			if score[r.idx], err = jaccardOf(r.body, pool[r.idx].truth); err != nil {
				return nil, err
			}
		}
		var mismatches atomic.Int64
		deadline := time.Now().Add(time.Duration(in.Seconds) * time.Second)
		rs, elapsed = srv.drive(pool, serveClients,
			untilDeadline(deadline, resample(len(pool), in.Seed, serveClients, 0)),
			func(idx int, body []byte) []byte {
				if !sameButElapsed(body, expected[idx]) {
					mismatches.Add(1)
				}
				return nil
			})
		for i := int64(0); i < mismatches.Load(); i++ {
			res.fail("a repeated answer differs from its first answer")
		}
		for _, r := range rs {
			if r.status == http.StatusOK {
				jac = append(jac, score[r.idx])
			}
		}
	} else {
		deadline := time.Now().Add(time.Duration(in.Seconds) * time.Second)
		rs, elapsed = srv.drive(pool, serveClients, untilDeadline(deadline, takeEach(0, len(pool))), copyBody)
		for _, r := range rs {
			if r.body == nil {
				continue
			}
			j, err := jaccardOf(r.body, pool[r.idx].truth)
			if err != nil {
				res.fail("question %d: decode response: %v", r.idx, err)
				continue
			}
			jac = append(jac, j)
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Attempted = len(rs)
	lat := okLatenciesMS(rs)
	for _, r := range rs {
		if r.status != http.StatusOK {
			res.fail("question %d: HTTP status %d", r.idx, r.status)
		}
	}

	// The served snapshot, loaded here, gives the library's answers.
	ld, _, err := setupSession(in, libraryConfig(w, 1), nil)
	if err != nil {
		return nil, err
	}
	checked := rs
	if w.repeat {
		checked = warm
	}
	if err := checkServed(checked, in.Questions, ld, checkSample, res); err != nil {
		return nil, err
	}
	res.setEndToEnd(w, setups, lat, elapsed, jac, rss)
	res.Detail["pool"] = len(pool)
	res.Detail["clients"] = serveClients
	return res, nil
}

// traceRequests is how many requests each client-scaling phase of a
// traced serve_repeat run sends; serve_distinct sends half its trace
// prefix per phase instead, since it may ask each question only once.
const traceRequests = 2000

// serveTraced is a serve workload's traced pass: the library-side
// traced replay and probes on the same snapshot and pool prefix, then
// the prefix sent to a fresh server with request{roundtrip,
// server_elapsed} spans, every response compared with the library's
// answer, and the server's own counters read from /stats.
func serveTraced(root string, in *inputs, w workload, cl *cleaner) (*result, error) {
	bin, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	res, tr, lib, err := libraryTraced(in, w)
	if err != nil {
		return nil, err
	}
	qs := in.Questions[:w.traceOps]
	pool, err := encodeRequests(qs, w.maxSteps)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(bin, in.SnapshotPath, cl)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	m := res.Metrics
	m["serve.boot_ms"] = float64(srv.boot) / float64(time.Millisecond)

	// Phase one with one client, phase two with serveClients: the ratio
	// of their throughputs is par.client_scaling.
	var one, two []response
	var oneT, twoT time.Duration
	before := &serverStats{Graphs: map[string]chase.SessionCounters{}}
	if w.repeat {
		start := time.Now()
		warm, _ := srv.drive(pool, serveClients, takeEach(0, len(pool)), copyBody)
		m["serve.warmup_ms"] = msSince(start)
		compareAll(warm, qs, lib, res)
		if before, err = srv.stats(); err != nil {
			return nil, err
		}
		one, oneT = srv.drive(pool, 1, resample(len(pool), in.Seed, 1, traceRequests), copyBody)
		two, twoT = srv.drive(pool, serveClients, resample(len(pool), in.Seed+1, serveClients, traceRequests/serveClients), copyBody)
		m["serve.hit_latency_ms_p50"] = percentile(sortedCopy(okLatenciesMS(one)), 0.5)
		m["serve.overhead_ms_p50"] = 0
	} else {
		half := len(pool) / 2
		one, oneT = srv.drive(pool, 1, takeEach(0, half), copyBody)
		two, twoT = srv.drive(pool, serveClients, takeEach(half, len(pool)), copyBody)
		m["serve.warmup_ms"] = 0
		m["serve.hit_latency_ms_p50"] = 0
		var overhead []float64
		for _, r := range one {
			if a, err := decodeAnswer(r.body); err == nil && r.body != nil {
				overhead = append(overhead, float64(r.latency)/float64(time.Millisecond)-a.ElapsedMS)
			}
		}
		m["serve.overhead_ms_p50"] = percentile(sortedCopy(overhead), 0.5)
	}
	compareAll(one, qs, lib, res)
	compareAll(two, qs, lib, res)
	requestSpans(tr, one, !w.repeat)
	res.Attempted += len(one) + len(two)
	m["par.client_scaling"] = ratio(ratio(float64(len(two)), twoT.Seconds()), ratio(float64(len(one)), oneT.Seconds()))
	var bytesTotal float64
	for _, r := range append(one, two...) {
		bytesTotal += float64(len(r.body))
	}
	m["serve.response_bytes_mean"] = ratio(bytesTotal, float64(len(one)+len(two)))

	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	sc := st.Graphs[graphName]
	m["serve.admitted"] = float64(st.Requests.Admitted)
	m["serve.rejected_full"] = float64(st.Requests.RejectedFull)
	m["serve.job_errors"] = float64(st.Requests.JobErrors)
	// Memo counters cover the two timed phases only: serve_repeat's
	// warm-up misses are its set-up, not its traffic.
	ac, ac0 := sc.AnswerCache, before.Graphs[graphName].AnswerCache
	hits, misses, coalesced := ac.Hits-ac0.Hits, ac.Misses-ac0.Misses, ac.Coalesced-ac0.Coalesced
	m["anscache.hit_ratio"] = ratio(float64(hits), float64(hits+misses+coalesced))
	m["anscache.coalesced"] = float64(coalesced)
	// The server's star cache, not the library replay's: it is the one
	// this workload's requests went through.
	m["match.cache_hit_ratio"] = ratio(float64(sc.Cache.Hits), float64(sc.Cache.Hits+sc.Cache.Misses))
	m["match.cache_evictions"] = float64(sc.Cache.Evictions)
	res.Detail["self_time_ms"] = tr.selfTimesMS() // now with the request spans
	return res, tr.write(traceFile(in))
}

// compareAll checks every response against the library's answer to the
// same question from the traced replay.
func compareAll(rs []response, qs []question, lib *tracedResult, res *result) {
	for _, r := range rs {
		compareServed(r, qs[r.idx].Endpoint, lib.asked[r.idx], lib.g, res)
	}
}

// requestSpans records request{roundtrip} for each response of the
// one-client phase, with server_elapsed under roundtrip when the body's
// elapsed_ms is this request's own chase (a memo hit reports the first
// chase's time instead). The client cannot see when the server started
// working, so server_elapsed is laid at the end of the roundtrip; what
// precedes it is transport, decode, admission and encode.
func requestSpans(tr *tracer, rs []response, ownElapsed bool) {
	for i, r := range rs {
		a, err := decodeAnswer(r.body)
		if err != nil {
			continue
		}
		op := 1000000 + i
		start := int64(r.sent.Sub(tr.t0))
		end := start + int64(r.latency)
		rt := tr.add(op, tr.add(op, 0, "request", start, end), "roundtrip", start, end)
		if ownElapsed {
			elapsed := min(int64(a.ElapsedMS*float64(time.Millisecond)), int64(r.latency))
			tr.add(op, rt, "server_elapsed", end-elapsed, end)
		}
	}
}
