package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"wqe/internal/exemplar"
	"wqe/internal/jsonscan"
	"wqe/internal/query"
)

// maxBodyBytes caps what a request body may hold; a longer one is
// answered 413 without being read further.
const maxBodyBytes = 8 << 20

// askRequest is one question as it arrives: the payload of every
// single-question endpoint and each job of /askall.
//
//	{"graph": "fig1", "query": {...}, "exemplar": {...},
//	 "algo": "answ", "beam": 0, "max_steps": 0, "time_limit_ms": 0}
//
// The query and exemplar are the documents the CLI reads from files
// (query.DecodeJSON, exemplar.DecodeJSON), inline.
type askRequest struct {
	Graph string
	Q     *query.Query
	E     *exemplar.Exemplar
	// Algo picks the algorithm on /ask ("answ", "heu", "whymany",
	// "whyempty", "fmansw"); the dedicated endpoints override it.
	Algo string
	Beam int
	// MaxSteps/TimeLimitMS override the session defaults per request.
	// The time limit is anchored at submission: waiting in the
	// admission queue spends it.
	MaxSteps    int
	TimeLimitMS int
	// err is what is wrong with the question itself — no query or
	// exemplar, or one that does not parse. compileJob reports it once
	// the graph resolves.
	err error
}

// askAllRequest is the /askall payload: one resident graph, many jobs.
//
//	{"graph": "fig1", "workers": 0, "jobs": [<askRequest>, ...]}
type askAllRequest struct {
	Graph string
	// Workers bounds the cross-question fan-out (0 = one per CPU).
	Workers int
	Jobs    []askRequest
}

// decodeAsk reads one question from r in one pass, its query and
// exemplar decoded where they stand, whatever the order of the keys. It
// reads as encoding/json decoded the payload into a struct whose query
// and exemplar were RawMessages, parsed afterwards: keys match
// case-insensitively, other keys are skipped, a key given twice takes
// its last value, null leaves a field as it was, and reading stops at
// the end of the value. The error it returns is the request's: r is not
// JSON, or an envelope field holds a value of the wrong kind (kept in
// types, as encoding/json kept the first). What is wrong with the
// question itself is left in req.err.
func decodeAsk(r *jsonscan.Reader, req *askRequest, types *jsonscan.Sticky) error {
	var (
		hasQ, hasE bool
		qErr, eErr error
	)
	err := r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "graph"):
			return types.Keep(r.String(&req.Graph))
		case jsonscan.FieldIs(key, "query"):
			hasQ = true
			req.Q, qErr = query.DecodeJSON(r)
			return notJSON(qErr)
		case jsonscan.FieldIs(key, "exemplar"):
			hasE = true
			req.E, eErr = exemplar.DecodeJSON(r)
			return notJSON(eErr)
		case jsonscan.FieldIs(key, "algo"):
			return types.Keep(r.String(&req.Algo))
		case jsonscan.FieldIs(key, "beam"):
			return types.Keep(r.Int(&req.Beam))
		case jsonscan.FieldIs(key, "max_steps"):
			return types.Keep(r.Int(&req.MaxSteps))
		case jsonscan.FieldIs(key, "time_limit_ms"):
			return types.Keep(r.Int(&req.TimeLimitMS))
		}
		return r.Skip(r.Depth())
	})
	switch {
	case !hasQ || !hasE:
		req.err = errors.New("request needs both \"query\" and \"exemplar\"")
	case qErr != nil:
		req.err = fmt.Errorf("parse query: %w", qErr)
	case eErr != nil:
		req.err = fmt.Errorf("parse exemplar: %w", eErr)
	}
	return types.Keep(err)
}

// notJSON passes on the error of a document decoder only when the input
// is not JSON — the decoders return that *jsonscan.Error unwrapped —:
// it ends the request's decoding, where an error about the document
// waits in askRequest.err.
func notJSON(err error) error {
	if _, ok := err.(*jsonscan.Error); ok {
		return err
	}
	return nil
}

// decodeQuestion reads a single-question payload.
func decodeQuestion(r *jsonscan.Reader, req *askRequest) error {
	var types jsonscan.Sticky
	if err := decodeAsk(r, req, &types); err != nil {
		return err
	}
	return types.Err
}

// decodeAskAll reads an /askall payload, each job as decodeAsk reads a
// question.
func decodeAskAll(r *jsonscan.Reader, req *askAllRequest) error {
	var types jsonscan.Sticky
	err := r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "graph"):
			return types.Keep(r.String(&req.Graph))
		case jsonscan.FieldIs(key, "workers"):
			return types.Keep(r.Int(&req.Workers))
		case jsonscan.FieldIs(key, "jobs"):
			req.Jobs = nil
			return types.Keep(r.List(func(int) error {
				req.Jobs = append(req.Jobs, askRequest{})
				return decodeAsk(r, &req.Jobs[len(req.Jobs)-1], &types)
			}))
		}
		return r.Skip(r.Depth())
	})
	if err := types.Keep(err); err != nil {
		return err
	}
	return types.Err
}

// body is a request body read into memory and a scanner over it, pooled
// so that a request allocates neither.
type body struct {
	buf []byte
	sc  jsonscan.Reader
}

var bodies = sync.Pool{New: func() any { return new(body) }}

// decodeBody reads r's body into a pooled buffer and decodes it with
// decode. When the body cannot be read, holds more than maxBodyBytes, or
// does not decode, it answers the request (400 or 413) and returns
// false. decode must copy out what it keeps: the buffer goes back to the
// pool.
func (s *server) decodeBody(rw http.ResponseWriter, r *http.Request, decode func(*jsonscan.Reader) error) bool {
	b := bodies.Get().(*body)
	buf, err := readAll(http.MaxBytesReader(rw, r.Body, maxBodyBytes), b.buf[:0], r.ContentLength)
	b.buf = buf
	if err == nil {
		b.sc.Reset(b.buf)
		err = decode(&b.sc)
		b.sc.Reset(nil)
	}
	if cap(b.buf) <= 1<<20 { // a large body's buffer is left to the collector
		bodies.Put(b)
	}
	if err == nil {
		return true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		s.stats.badRequest.Add(1)
		s.writeError(rw, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		s.badRequestf(rw, "decode request: %v", err)
	}
	return false
}

// readAll appends what r holds to buf, growing it once to size when the
// size is known.
func readAll(r io.Reader, buf []byte, size int64) ([]byte, error) {
	if size > 0 && size <= maxBodyBytes && int(size) > cap(buf) {
		buf = make([]byte, 0, size+1) // +1: the read that finds the end
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
