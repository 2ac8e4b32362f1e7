package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"wqe/internal/chase"
	"wqe/internal/jsonscan"
)

// maxBodyBytes caps what a request body may hold; a longer one is
// answered 413 without being read further.
const maxBodyBytes = 8 << 20

// askRequest is one question as it arrives: the payload of every
// single-question endpoint and each job of /askall, a job object
// (chase.DecodeJob) with the name of a resident graph beside it.
//
//	{"graph": "fig1", "query": {...}, "exemplar": {...}, ...}
type askRequest struct {
	Graph string
	Job   chase.BatchJob
	// err is what is wrong with the question itself. compileJob reports
	// it once the graph resolves.
	err error
}

// askAllRequest is the /askall payload: one resident graph, many jobs.
//
//	{"graph": "fig1", "jobs": [<askRequest>, ...]}
//
// How many jobs run at once is the server's -workers, not the client's:
// any other key, "workers" included, is skipped.
type askAllRequest struct {
	Graph string
	Jobs  []askRequest
}

// decodeAsk reads one question from r, as chase.DecodeJob reads a job
// and "graph" besides. The error it returns is the request's; what is
// wrong with the question itself is left in req.err.
func decodeAsk(r *jsonscan.Reader, req *askRequest, types *jsonscan.Sticky) (err error) {
	req.err, err = chase.DecodeJob(r, &req.Job, types, func(key []byte) (bool, error) {
		if !jsonscan.FieldIs(key, "graph") {
			return false, nil
		}
		return true, types.Keep(r.String(&req.Graph))
	})
	return err
}

// decodeQuestion reads a single-question payload.
func decodeQuestion(r *jsonscan.Reader, req *askRequest) error {
	var types jsonscan.Sticky
	err := decodeAsk(r, req, &types)
	return cmp.Or(err, types.Err)
}

// decodeAskAll reads an /askall payload, each job as decodeAsk reads a
// question.
func decodeAskAll(r *jsonscan.Reader, req *askAllRequest) error {
	var types jsonscan.Sticky
	err := r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "graph"):
			return types.Keep(r.String(&req.Graph))
		case jsonscan.FieldIs(key, "jobs"):
			req.Jobs = nil
			return types.Keep(r.List(func(int) error {
				req.Jobs = append(req.Jobs, askRequest{})
				return decodeAsk(r, &req.Jobs[len(req.Jobs)-1], &types)
			}))
		}
		return r.Skip(r.Depth())
	})
	err = types.Keep(err)
	return cmp.Or(err, types.Err)
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
