package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/jsonscan"
	"wqe/internal/match"
	"wqe/internal/query"
)

// askEndpoint is a single-question endpoint with the algorithm it
// forces and whether it explains, as mux registers it.
type askEndpoint struct {
	path, algo string
	explain    bool
}

var (
	askPlain     = askEndpoint{"/ask", "", false}
	whyExplained = askEndpoint{"/why", "answ", true}
	askVariants  = []askEndpoint{
		askPlain,
		{"/askfast", "heu", false},
		whyExplained,
		{"/whymany", "whymany", true},
		{"/whyempty", "whyempty", true},
	}
)

// postOK posts the Fig 1 question to url and returns the 200 body.
func postOK(t *testing.T, url string) []byte {
	t.Helper()
	status, b, err := smokePost(url, smokeAskBody(""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("POST %s: status %d, err %v: %s", url, status, err, b)
	}
	return b
}

// oracleBody is what an ask endpoint sent for the Fig 1 question before
// memo entries kept bodies: answerJSON of a Run of the same job, through
// the JSON encoder. With the memo on, that Run is a hit and returns the
// entry's result, chase time included. elapsedFrom, when not nil, is a
// served body whose elapsed_ms replaces the Run's: a memo-off request
// times its own chase.
func oracleBody(t *testing.T, srv *server, ep askEndpoint, elapsedFrom []byte) []byte {
	t.Helper()
	var sc jsonscan.Reader
	job, err := srv.ask(&sc, smokeAskBody(""), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if ep.algo != "" {
		job.Algo = ep.algo
	}
	h := srv.graphs["fig1"]
	res := h.session.Run(job)
	if res.Err != nil {
		t.Fatalf("%s: %v", ep.path, res.Err)
	}
	out := answerJSON(h, job, res, ep.explain)
	if elapsedFrom != nil {
		var served askResponse
		if err := json.Unmarshal(elapsedFrom, &served); err != nil {
			t.Fatal(err)
		}
		out.ElapsedMS = served.ElapsedMS
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// answerBodies reads the session's count of stored response bodies.
func answerBodies(srv *server) int64 {
	return srv.graphs["fig1"].session.Counters().AnswerBodies
}

// TestMemoHitBodies: a memo hit sends the body its entry stored on the
// entry's first hit, and that body is the bytes the encoder makes of the
// entry's result; a miss, or a server without the memo, renders as
// before. /ask and /why share an entry and each keeps its own body, and
// concurrent first hits store one body and all send it.
func TestMemoHitBodies(t *testing.T) {
	for _, memo := range []bool{true, false} {
		for _, v := range askVariants {
			t.Run(fmt.Sprintf("%s/memo=%v", v.path[1:], memo), func(t *testing.T) {
				srv, ts := newTestServer(t, 2, 8, memo)
				var bodies [3][]byte
				for i := range bodies {
					bodies[i] = postOK(t, ts.URL+v.path)
					if i == 0 && answerBodies(srv) != 0 {
						t.Fatalf("a question asked once stored %d bodies", answerBodies(srv))
					}
				}
				var want []byte
				for i, b := range bodies {
					if !memo || want == nil {
						var from []byte
						if !memo {
							from = b
						}
						want = oracleBody(t, srv, v, from)
					}
					if !bytes.Equal(b, want) {
						t.Errorf("request %d:\n got %s\nwant %s", i+1, b, want)
					}
				}
				wantStored := int64(0)
				if memo {
					wantStored = 1
				}
				if got := answerBodies(srv); got != wantStored {
					t.Errorf("stored bodies = %d, want %d", got, wantStored)
				}
			})
		}
	}

	t.Run("ask-why-share-an-entry", func(t *testing.T) {
		srv, ts := newTestServer(t, 2, 8, true)
		seq := []askEndpoint{askPlain, whyExplained, askPlain, whyExplained, askPlain}
		got := make([][]byte, len(seq))
		for i, ep := range seq {
			got[i] = postOK(t, ts.URL+ep.path)
		}
		want := map[askEndpoint][]byte{askPlain: oracleBody(t, srv, askPlain, nil), whyExplained: oracleBody(t, srv, whyExplained, nil)}
		for i, ep := range seq {
			if !bytes.Equal(got[i], want[ep]) {
				t.Errorf("request %d (%s):\n got %s\nwant %s", i+1, ep.path, got[i], want[ep])
			}
		}
		c := srv.graphs["fig1"].session.Counters()
		if c.AnswerCache.Misses != 1 || c.AnswerBodies != 2 {
			t.Errorf("misses %d, stored bodies %d; want 1 entry holding 2 bodies", c.AnswerCache.Misses, c.AnswerBodies)
		}
	})

	t.Run("concurrent-first-hits", func(t *testing.T) {
		srv, ts := newTestServer(t, 8, 8, true)
		postOK(t, ts.URL+whyExplained.path)
		const n = 8
		got := make([][]byte, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				status, b, err := smokePost(ts.URL+whyExplained.path, smokeAskBody(""))
				if err != nil || status != http.StatusOK {
					t.Errorf("POST /why: status %d, err %v: %s", status, err, b)
				}
				got[i] = b
			}(i)
		}
		close(start)
		wg.Wait()
		want := oracleBody(t, srv, whyExplained, nil)
		for i, b := range got {
			if !bytes.Equal(b, want) {
				t.Errorf("hit %d:\n got %s\nwant %s", i, b, want)
			}
		}
		c := srv.graphs["fig1"].session.Counters()
		if c.AnswerCache.Hits != n+1 || c.AnswerBodies != 1 {
			t.Errorf("hits %d, stored bodies %d; want %d hits storing 1 body", c.AnswerCache.Hits, c.AnswerBodies, n+1)
		}
	})
}

// statusWriter is a sink ResponseWriter that keeps the status.
type statusWriter struct {
	header http.Header
	status int
}

func (w *statusWriter) Header() http.Header         { return w.header }
func (w *statusWriter) WriteHeader(status int)      { w.status = status }
func (w *statusWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkAskHit times one answer-memo hit through the server's mux, in
// process: decode, compile, admission, the memo lookup and the response,
// for a serve_repeat-shaped question (a generated 1000-node products
// graph, a tree query of two edges, 60 steps) on /askfast and on /why.
// The memo holds the question's entry and its first hit is past.
func BenchmarkAskHit(b *testing.B) {
	g, err := datagen.Generate(datagen.DatasetProducts, 1000, 7)
	if err != nil {
		b.Fatal(err)
	}
	pll := distindex.NewPLL(g)
	rng := rand.New(rand.NewSource(14))
	spec := datagen.WhySpec{
		Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
		DisturbOps: 3,
		MaxTuples:  5,
	}
	var inst *datagen.WhyInstance
	for ok := false; !ok; {
		inst, ok = datagen.GenWhy(g, match.NewMatcher(g, pll, nil), spec, rng)
	}
	var qb, eb bytes.Buffer
	if err := inst.Q.WriteJSON(&qb); err != nil {
		b.Fatal(err)
	}
	if err := inst.E.WriteJSON(&eb); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(struct {
		Graph    string          `json:"graph"`
		Query    json.RawMessage `json:"query"`
		Exemplar json.RawMessage `json:"exemplar"`
		MaxSteps int             `json:"max_steps"`
	}{"products", bytes.TrimSpace(qb.Bytes()), bytes.TrimSpace(eb.Bytes()), 60})
	if err != nil {
		b.Fatal(err)
	}

	cfg := chase.DefaultConfig()
	cfg.AnswerCacheCap = 4096
	h := &graphHandle{name: "products", g: g, session: chase.NewSessionWithIndex(g, cfg, pll)}
	mux := newServer([]*graphHandle{h}, 2, 64, 30*time.Second).mux()
	for _, path := range []string{"/askfast", "/why"} {
		b.Run(path[1:], func(b *testing.B) {
			w := &statusWriter{header: http.Header{}}
			serve := func() {
				w.status = http.StatusOK
				mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if w.status != http.StatusOK {
					b.Fatalf("POST %s: status %d", path, w.status)
				}
			}
			serve() // the miss
			serve() // the first hit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
