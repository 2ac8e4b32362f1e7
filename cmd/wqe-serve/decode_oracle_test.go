package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"wqe/internal/chase"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// This file keeps the question decoding wqe-serve did before its one-pass
// decoder, verbatim but for names, as the oracle FuzzDecodeAsk and
// BenchmarkDecodeAsk hold the decoder to: encoding/json decoding the
// payload with the query and exemplar as RawMessages, then the bodies
// query.ReadJSON and exemplar.ReadJSON had, each decoding its document
// again through encoding/json.

// oracleAskRequest is the payload of every single-question endpoint. Query
// and Exemplar embed the same JSON schemas the CLI files use.
type oracleAskRequest struct {
	Graph    string          `json:"graph"`
	Query    json.RawMessage `json:"query"`
	Exemplar json.RawMessage `json:"exemplar"`
	// Algo picks the algorithm on /ask ("answ", "heu", "whymany",
	// "whyempty", "fmansw"); the dedicated endpoints override it.
	Algo string `json:"algo,omitempty"`
	Beam int    `json:"beam,omitempty"`
	// MaxSteps/TimeLimitMS override the session defaults per request.
	// The time limit is anchored at submission: waiting in the
	// admission queue spends it.
	MaxSteps    int `json:"max_steps,omitempty"`
	TimeLimitMS int `json:"time_limit_ms,omitempty"`
}

// oracleAskAllRequest is the /askall payload: one resident graph, many jobs.
// "workers" is an unknown key, skipped, as askAllRequest skips it.
type oracleAskAllRequest struct {
	Graph string             `json:"graph"`
	Jobs  []oracleAskRequest `json:"jobs"`
}

// oracleAsk is askHandler's path up to admission.
func (s *server) oracleAsk(body []byte, submit time.Time) (chase.BatchJob, error) {
	var req oracleAskRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return chase.BatchJob{}, fmt.Errorf("decode request: %v", err)
	}
	_, job, err := s.oracleCompileJob(&req, submit, nil)
	return job, err
}

// oracleAskAll is handleAskAll's path up to admission.
func (s *server) oracleAskAll(body []byte, submit time.Time) ([]chase.BatchJob, error) {
	var req oracleAskAllRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %v", err)
	}
	if len(req.Jobs) == 0 {
		return nil, fmt.Errorf("askall needs a non-empty \"jobs\" array")
	}
	h, err := s.handleFor(req.Graph)
	if err != nil {
		return nil, err
	}
	jobs := make([]chase.BatchJob, len(req.Jobs))
	for i := range req.Jobs {
		req.Jobs[i].Graph = h.name
		_, job, err := s.oracleCompileJob(&req.Jobs[i], submit, nil)
		if err != nil {
			return nil, fmt.Errorf("job #%d: %v", i+1, err)
		}
		jobs[i] = job
	}
	return jobs, nil
}

// oracleCompileJob resolves the request's graph and parses its query and
// exemplar into a session job. cancel is the request context's done
// channel: it stops the chase mid-beam when the client disconnects.
func (s *server) oracleCompileJob(req *oracleAskRequest, submit time.Time, cancel <-chan struct{}) (*graphHandle, chase.BatchJob, error) {
	h, err := s.handleFor(req.Graph)
	if err != nil {
		return nil, chase.BatchJob{}, err
	}
	if len(req.Query) == 0 || len(req.Exemplar) == 0 {
		return nil, chase.BatchJob{}, fmt.Errorf("request needs both \"query\" and \"exemplar\"")
	}
	q, err := oracleReadQuery(bytes.NewReader(req.Query))
	if err != nil {
		return nil, chase.BatchJob{}, fmt.Errorf("parse query: %w", err)
	}
	e, err := oracleReadExemplar(bytes.NewReader(req.Exemplar))
	if err != nil {
		return nil, chase.BatchJob{}, fmt.Errorf("parse exemplar: %w", err)
	}
	// The pattern caps are newer than this decoding: applied as the
	// decoder applies them.
	if len(q.Nodes) > chase.MaxJobNodes || len(q.Edges) > chase.MaxJobEdges {
		return nil, chase.BatchJob{}, fmt.Errorf("pattern too large: %d nodes and %d edges", len(q.Nodes), len(q.Edges))
	}
	job := chase.BatchJob{
		Q:        q,
		E:        e,
		Algo:     req.Algo,
		Beam:     req.Beam,
		MaxSteps: req.MaxSteps,
		Cancel:   cancel,
	}
	// Anchor the request budget at submission so queue wait counts.
	limit := s.timeout
	if req.TimeLimitMS > 0 {
		limit = time.Duration(req.TimeLimitMS) * time.Millisecond
	}
	if limit > 0 {
		job.Deadline = submit.Add(limit)
	}
	return h, job, nil
}

// The query document's shape, as query.ReadJSON decoded it.
type oracleJSONQuery struct {
	Focus int              `json:"focus"`
	Nodes []oracleJSONNode `json:"nodes"`
	Edges []oracleJSONEdge `json:"edges"`
}

type oracleJSONNode struct {
	Label    string              `json:"label"`
	Literals []oracleJSONLiteral `json:"literals,omitempty"`
}

type oracleJSONLiteral struct {
	Attr  string          `json:"attr"`
	Op    string          `json:"op"`
	Value json.RawMessage `json:"value"`
}

type oracleJSONEdge struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Bound int `json:"bound"`
}

func oracleQueryValue(raw json.RawMessage) (graph.Value, error) {
	var num float64
	if err := json.Unmarshal(raw, &num); err == nil {
		return graph.N(num), nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return graph.Value{}, fmt.Errorf("query: literal value is neither number nor string")
	}
	return graph.S(s), nil
}

// oracleReadQuery parses a query in the WriteJSON shape and validates it.
func oracleReadQuery(r io.Reader) (*query.Query, error) {
	var jq oracleJSONQuery
	if err := json.NewDecoder(r).Decode(&jq); err != nil {
		return nil, fmt.Errorf("query: decode: %w", err)
	}
	q := query.New()
	for _, jn := range jq.Nodes {
		u := q.AddNode(jn.Label)
		for _, jl := range jn.Literals {
			op, err := graph.ParseOp(jl.Op)
			if err != nil {
				return nil, err
			}
			val, err := oracleQueryValue(jl.Value)
			if err != nil {
				return nil, err
			}
			q.Nodes[u].Literals = append(q.Nodes[u].Literals,
				query.Literal{Attr: jl.Attr, Op: op, Val: val})
		}
	}
	for _, je := range jq.Edges {
		q.AddEdge(query.NodeID(je.From), query.NodeID(je.To), je.Bound)
	}
	q.Focus = query.NodeID(jq.Focus)
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// The exemplar document's shape, as exemplar.ReadJSON decoded it.
type oracleJSONExemplar struct {
	Tuples      []map[string]oracleJSONCell `json:"tuples"`
	Constraints []oracleJSONConstraint      `json:"constraints,omitempty"`
}

type oracleJSONCell struct {
	Const    json.RawMessage `json:"const,omitempty"`
	Var      string          `json:"var,omitempty"`
	Wildcard bool            `json:"wildcard,omitempty"`
}

type oracleJSONConstraint struct {
	Left  string          `json:"left"`
	Op    string          `json:"op"`
	Right string          `json:"right,omitempty"`
	Const json.RawMessage `json:"const,omitempty"`
}

// oracleReadExemplar parses an exemplar in the WriteJSON shape and
// validates it.
func oracleReadExemplar(r io.Reader) (*exemplar.Exemplar, error) {
	var je oracleJSONExemplar
	if err := json.NewDecoder(r).Decode(&je); err != nil {
		return nil, fmt.Errorf("exemplar: decode: %w", err)
	}
	e := &exemplar.Exemplar{}
	for ti, jt := range je.Tuples {
		t := exemplar.TuplePattern{}
		// Sorted so a malformed cell always yields the same error.
		attrs := make([]string, 0, len(jt))
		for attr := range jt {
			attrs = append(attrs, attr)
		}
		sort.Strings(attrs)
		for _, attr := range attrs {
			jc := jt[attr]
			switch {
			case jc.Wildcard:
				t[attr] = exemplar.W()
			case jc.Var != "":
				t[attr] = exemplar.V(jc.Var)
			case jc.Const != nil:
				val, err := oracleExemplarValue(jc.Const)
				if err != nil {
					return nil, fmt.Errorf("exemplar: tuple %d attr %q: %w", ti, attr, err)
				}
				t[attr] = exemplar.C(val)
			default:
				return nil, fmt.Errorf("exemplar: tuple %d attr %q: cell must set const, var, or wildcard", ti, attr)
			}
		}
		e.Tuples = append(e.Tuples, t)
	}
	for ci, jc := range je.Constraints {
		op, err := graph.ParseOp(jc.Op)
		if err != nil {
			return nil, fmt.Errorf("exemplar: constraint %d: %w", ci, err)
		}
		c := exemplar.Constraint{Left: jc.Left, Op: op}
		switch {
		case jc.Right != "":
			c.IsVar = true
			c.Right = jc.Right
		case jc.Const != nil:
			val, err := oracleExemplarValue(jc.Const)
			if err != nil {
				return nil, fmt.Errorf("exemplar: constraint %d: %w", ci, err)
			}
			c.Val = val
		default:
			return nil, fmt.Errorf("exemplar: constraint %d: needs right or const", ci)
		}
		e.Constraints = append(e.Constraints, c)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

func oracleExemplarValue(raw json.RawMessage) (graph.Value, error) {
	var num float64
	if err := json.Unmarshal(raw, &num); err == nil {
		return graph.N(num), nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return graph.Value{}, fmt.Errorf("value is neither number nor string")
	}
	return graph.S(s), nil
}
