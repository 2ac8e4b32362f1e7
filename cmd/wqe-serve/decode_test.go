package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/jsonscan"
	"wqe/internal/par"
	"wqe/internal/query"
)

// decodeServer is a server over the Fig 1 graph with no session: enough
// to resolve graphs and compile jobs.
func decodeServer() *server {
	f := datagen.NewFig1()
	return newServer([]*graphHandle{{name: "fig1", g: f.G}}, 1, 1, 30*time.Second)
}

// ask is askHandler's path up to admission, through the one-pass
// decoder.
func (s *server) ask(sc *jsonscan.Reader, body []byte, submit time.Time) (chase.BatchJob, error) {
	sc.Reset(body)
	var req askRequest
	if err := decodeQuestion(sc, &req); err != nil {
		return chase.BatchJob{}, fmt.Errorf("decode request: %v", err)
	}
	_, job, err := s.compileJob(&req, submit, nil)
	return job, err
}

// askAll is handleAskAll's path up to admission.
func (s *server) askAll(body []byte, submit time.Time) ([]chase.BatchJob, error) {
	var sc jsonscan.Reader
	sc.Reset(body)
	var req askAllRequest
	if err := decodeAskAll(&sc, &req); err != nil {
		return nil, fmt.Errorf("decode request: %v", err)
	}
	_, jobs, err := s.compileAll(&req, submit, nil)
	return jobs, err
}

// jobDiff describes how two compiled jobs differ, or returns "".
func jobDiff(got, want chase.BatchJob) string {
	switch {
	case got.Algo != want.Algo || got.Beam != want.Beam || got.MaxSteps != want.MaxSteps:
		return fmt.Sprintf("algo/beam/max_steps %q/%d/%d, want %q/%d/%d", got.Algo, got.Beam, got.MaxSteps, want.Algo, want.Beam, want.MaxSteps)
	case !got.Deadline.Equal(want.Deadline):
		return fmt.Sprintf("deadline %v, want %v", got.Deadline, want.Deadline)
	case got.Q.Key() != want.Q.Key():
		return fmt.Sprintf("query %v, want %v", got.Q, want.Q)
	case !bytes.Equal(got.E.AppendKey(nil), want.E.AppendKey(nil)):
		return fmt.Sprintf("exemplar %v, want %v", got.E, want.E)
	}
	return ""
}

// errClass is the part of a request error both decoders word alike: up
// to the first ": " (two of them after "job #n").
func errClass(err error) string {
	msg := err.Error()
	if i := strings.Index(msg, ": "); i >= 0 {
		if j := strings.Index(msg[i+2:], ": "); strings.HasPrefix(msg, "job #") && j >= 0 {
			return msg[:i+2+j]
		}
		return msg[:i]
	}
	return msg
}

// repeatsArrayKey reports whether some object in data holds two keys
// that name one field (bytes.EqualFold) and both hold arrays: the case
// where encoding/json decoded the second array element by element into
// the first one's elements, and the decoder takes the second as it is
// (DESIGN.md §16).
func repeatsArrayKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	found := false
	// walk reads one value and reports whether it was an array; it stops
	// at bad input or once found.
	var walk func() (array, ok bool)
	walk = func() (bool, bool) {
		tok, err := dec.Token()
		if err != nil {
			return false, false
		}
		switch tok {
		case json.Delim('['):
			for dec.More() {
				if _, ok := walk(); !ok || found {
					return false, false
				}
			}
			_, err = dec.Token()
			return true, err == nil
		case json.Delim('{'):
			var arrays []string
			for dec.More() {
				kt, err := dec.Token()
				if err != nil {
					return false, false
				}
				key, _ := kt.(string)
				array, ok := walk()
				if !ok || found {
					return false, false
				}
				if !array {
					continue
				}
				for _, k := range arrays {
					found = found || strings.EqualFold(k, key)
				}
				arrays = append(arrays, key)
			}
			_, err = dec.Token()
			return false, err == nil
		}
		return false, true
	}
	walk()
	return found
}

// FuzzDecodeAsk holds the one-pass question decoder to the encoding/json
// decoding it replaced (decode_oracle_test.go): read as a single question
// and as an /askall payload, each input must give both the same jobs —
// algorithm, beam, step cap, deadline, query and exemplar keys — or fail
// in both, with errors of the same class (decode request, unknown graph,
// parse query, ...). Inputs that repeat an array-valued key in one object
// are the documented difference and are not compared.
func FuzzDecodeAsk(f *testing.F) {
	f.Add(smokeAskBody(""))
	f.Add([]byte(`{"graph":"fig1","jobs":[` + string(smokeAskBody("heu")) + `,{"query":` +
		smokeQueryJSON + `,"exemplar":` + smokeExemplarJSON + `,"beam":2}]}`))
	s := decodeServer()
	submit := time.Unix(1e9, 0)
	var sc jsonscan.Reader
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := s.ask(&sc, data, submit)
		want, werr := s.oracleAsk(data, submit)
		gotAll, aerr := s.askAll(data, submit)
		wantAll, waerr := s.oracleAskAll(data, submit)
		if repeatsArrayKey(data) {
			return
		}
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("ask: decoder error %v, oracle error %v", err, werr)
		case err != nil && errClass(err) != errClass(werr):
			t.Fatalf("ask: decoder error %q, oracle error %q", err, werr)
		case err == nil:
			if d := jobDiff(got, want); d != "" {
				t.Fatalf("ask: %s", d)
			}
		}
		switch {
		case (aerr == nil) != (waerr == nil):
			t.Fatalf("askall: decoder error %v, oracle error %v", aerr, waerr)
		case aerr != nil && errClass(aerr) != errClass(waerr):
			t.Fatalf("askall: decoder error %q, oracle error %q", aerr, waerr)
		case len(gotAll) != len(wantAll):
			t.Fatalf("askall: %d jobs, oracle %d", len(gotAll), len(wantAll))
		}
		for i := range gotAll {
			if d := jobDiff(gotAll[i], wantAll[i]); d != "" {
				t.Fatalf("askall job %d: %s", i, d)
			}
		}
	})
}

// TestDecodeAskRepeatedArrayKey pins the decoder's documented difference
// (DESIGN.md §16): a second "nodes" array replaces the first, where
// encoding/json decoded it element by element into the first one's
// nodes — here keeping the first node's label under the second's
// literals.
func TestDecodeAskRepeatedArrayKey(t *testing.T) {
	body := []byte(`{"graph":"fig1","exemplar":` + smokeExemplarJSON + `,"query":{"focus":0,` +
		`"nodes":[{"label":"Cellphone"}],` +
		`"nodes":[{"literals":[{"attr":"Price","op":">=","value":840}]}]}}`)
	if !repeatsArrayKey(body) {
		t.Fatal("repeatsArrayKey misses the repeated \"nodes\"")
	}
	s := decodeServer()
	var sc jsonscan.Reader
	got, err := s.ask(&sc, body, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.oracleAsk(body, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	lit := query.Literal{Attr: "Price", Op: graph.GE, Val: graph.N(840)}
	if n := got.Q.Nodes; len(n) != 1 || n[0].Label != "" || len(n[0].Literals) != 1 || !n[0].Literals[0].Equal(lit) {
		t.Errorf("decoder: nodes %+v, want the second array's one node, unlabelled", n)
	}
	if n := want.Q.Nodes; len(n) != 1 || n[0].Label != "Cellphone" || len(n[0].Literals) != 1 {
		t.Errorf("oracle: nodes %+v, want the first node's label merged with the second's literals", n)
	}
}

// TestDecodeAskCases pins what the seeds of FuzzDecodeAsk exercise, by
// name, through both paths.
func TestDecodeAskCases(t *testing.T) {
	q, e := smokeQueryJSON, smokeExemplarJSON
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"escaped operators", `{"query":{"nodes":[{"literals":[{"attr":"a","op":"<=","value":1}]}]},"exemplar":` + e + `}`, true},
		{"case-variant and folded keys", `{"GRAPH":"fig1","Query":` + q + `,"exemplaR":` + e + `,"ALGO":"heu","max_ſteps":5}`, true},
		{"query before graph", `{"query":` + q + `,"exemplar":` + e + `,"graph":"fig1"}`, true},
		{"null value reads as 0", `{"query":{"nodes":[{"literals":[{"attr":"a","op":"=","value":null}]}]},"exemplar":` + e + `}`, true},
		{"fraction in an int field", `{"query":` + q + `,"exemplar":` + e + `,"beam":1.5}`, false},
		{"exponent in an int field", `{"query":` + q + `,"exemplar":` + e + `,"max_steps":1e2}`, false},
		{"string in an int field", `{"query":{"focus":"1","nodes":[{}]},"exemplar":` + e + `}`, false},
		{"var and const in one cell", `{"query":` + q + `,"exemplar":{"tuples":[{"a":{"const":1,"var":"x"}}]}}`, true},
		{"surrogates and invalid UTF-8", `{"query":{"nodes":[{"label":"😀\ud800x\udc00` + "\xff\xc3" + `"}]},"exemplar":` + e + `}`, true},
		{"trailing bytes", `{"query":` + q + `,"exemplar":` + e + `} trailing [`, true},
		{"empty body", ``, false},
		{"null body", `null`, false},
		{"unknown graph", `{"graph":"nope","query":` + q + `,"exemplar":` + e + `}`, false},
		{"no exemplar", `{"query":` + q + `}`, false},
		{"bad operator", `{"query":{"nodes":[{"literals":[{"attr":"a","op":"~"}]}]},"exemplar":` + e + `}`, false},
		{"a path names no server file", `{"query":"testdata/fig1/query.json","exemplar":` + e + `}`, false},
		{"later key wins", `{"query":{"nodes":[{"literals":[{"attr":"a","op":"~","op":"<","value":1}]}]},"exemplar":` + e + `}`, true},
		{"a pattern at both caps", `{"query":` + patternJSON(chase.MaxJobNodes, chase.MaxJobEdges) + `,"exemplar":` + e + `}`, true},
		{"a node over the cap", `{"query":` + patternJSON(chase.MaxJobNodes+1, chase.MaxJobNodes) + `,"exemplar":` + e + `}`, false},
		{"an edge over the cap", `{"query":` + patternJSON(chase.MaxJobNodes, chase.MaxJobEdges+1) + `,"exemplar":` + e + `}`, false},
		{"an exemplar at the tuple cap", `{"query":` + q + `,"exemplar":` + exemplarJSON(exemplar.MaxTuples) + `}`, true},
		{"a tuple over the cap", `{"query":` + q + `,"exemplar":` + exemplarJSON(exemplar.MaxTuples+1) + `}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := decodeServer()
			var sc jsonscan.Reader
			got, err := s.ask(&sc, []byte(tc.body), time.Time{})
			want, werr := s.oracleAsk([]byte(tc.body), time.Time{})
			if (err == nil) != tc.ok || (werr == nil) != tc.ok {
				t.Fatalf("decoder error %v, oracle error %v; want ok=%v", err, werr, tc.ok)
			}
			if err != nil {
				if errClass(err) != errClass(werr) {
					t.Errorf("decoder error %q, oracle error %q", err, werr)
				}
				return
			}
			if d := jobDiff(got, want); d != "" {
				t.Error(d)
			}
		})
	}
}

// patternJSON is a query document of the given numbers of nodes and
// edges, no two edges alike and none a self-loop (edges < nodes²).
func patternJSON(nodes, edges int) string {
	var b strings.Builder
	b.WriteString(`{"focus":0,"nodes":[`)
	for i := range nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"label":"Cellphone"}`)
	}
	b.WriteString(`],"edges":[`)
	for i := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		from := i % nodes
		fmt.Fprintf(&b, `{"from":%d,"to":%d,"bound":1}`, from, (from+1+i/nodes)%nodes)
	}
	b.WriteString(`]}`)
	return b.String()
}

// exemplarJSON is an exemplar document of the given number of tuples.
func exemplarJSON(tuples int) string {
	var b strings.Builder
	b.WriteString(`{"tuples":[`)
	for i := range tuples {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"Price":{"const":%d}}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestBodyTooLarge: a body over maxBodyBytes is answered 413 and counted
// as a bad request, on both decoding endpoints.
func TestBodyTooLarge(t *testing.T) {
	srv, ts := newTestServer(t, 1, 4, false)
	big := append(smokeAskBody(""), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	for i, ep := range []string{"/ask", "/askall"} {
		status, b, err := smokePost(ts.URL+ep, big)
		if err != nil || status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, err %v: %s", ep, len(big), status, err, b)
		}
		if n := srv.stats.badRequest.Load(); n != int64(i+1) {
			t.Errorf("bad_request = %d, want %d", n, i+1)
		}
	}
	// Just under the cap, trailing bytes and all, it is a question.
	fits := append(smokeAskBody(""), bytes.Repeat([]byte(" "), maxBodyBytes-len(smokeAskBody("")))...)
	if status, b, err := smokePost(ts.URL+"/ask", fits); err != nil || status != http.StatusOK {
		t.Fatalf("/ask with a %d-byte body: status %d, err %v: %s", len(fits), status, err, b)
	}
}

// TestDebugListener: the serving mux has no pprof route, and the -debug
// listener serves one until it is closed.
func TestDebugListener(t *testing.T) {
	srv := decodeServer()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("serving mux answers GET /debug/pprof/ with %d, want 404", rec.Code)
	}

	var group par.Group
	dsrv, addr, err := serveDebug("127.0.0.1:0", &group)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug listener answers GET /debug/pprof/ with %d, want 200", resp.StatusCode)
	}
	if err := dsrv.Close(); err != nil {
		t.Fatal(err)
	}
	group.Wait()
}

// askfastBody is a question shaped like serve_repeat's /askfast
// requests: a three-node tree query whose operators encoding/json
// escapes ("<=", ">="), an exemplar of five tuples with a
// constraint, and a step cap.
func askfastBody(tb testing.TB) []byte {
	tb.Helper()
	q := query.New()
	u := q.AddNode("product",
		query.Literal{Attr: "price", Op: graph.LE, Val: graph.N(412.5)},
		query.Literal{Attr: "rating", Op: graph.GE, Val: graph.N(3)})
	v := q.AddNode("brand", query.Literal{Attr: "country", Op: graph.EQ, Val: graph.S("DE")})
	w := q.AddNode("category")
	q.AddEdge(v, u, 1)
	q.AddEdge(u, w, 2)
	q.Focus = u
	e := &exemplar.Exemplar{Constraints: []exemplar.Constraint{{Left: "x0", Op: graph.LT, Val: graph.N(500)}}}
	for i := 0; i < 5; i++ {
		t := exemplar.TuplePattern{
			"price":  exemplar.C(graph.N(380 + 7.5*float64(i))),
			"rating": exemplar.C(graph.N(float64(3 + i%3))),
			"stock":  exemplar.W(),
		}
		if i == 0 {
			t["price"] = exemplar.V("x0")
		}
		e.Tuples = append(e.Tuples, t)
	}
	var qb, eb bytes.Buffer
	if err := q.WriteJSON(&qb); err != nil {
		tb.Fatal(err)
	}
	if err := e.WriteJSON(&eb); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(struct {
		Graph    string          `json:"graph"`
		Query    json.RawMessage `json:"query"`
		Exemplar json.RawMessage `json:"exemplar"`
		MaxSteps int             `json:"max_steps"`
	}{"fig1", qb.Bytes(), eb.Bytes(), 60})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeAsk times one question's way from body bytes to a
// compiled job: encoding/json's envelope-then-documents path
// (decode_oracle_test.go) against the one-pass decoder over a reused
// scanner, as wqe-serve pools it.
func BenchmarkDecodeAsk(b *testing.B) {
	s := decodeServer()
	body := askfastBody(b)
	if !bytes.Contains(body, []byte(`\u003c=`)) {
		b.Fatalf("operators not escaped: %s", body)
	}
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := s.oracleAsk(body, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		var sc jsonscan.Reader
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := s.ask(&sc, body, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
