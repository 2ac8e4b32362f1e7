// Package graphload opens attributed-graph files for the CLIs,
// accepting either on-disk format: the binary snapshot of
// internal/graph (recognized by its magic bytes) or graph JSON. A
// snapshot carrying embedded PLL labels also restores the distance
// index, so callers can hand it straight to
// chase.NewSessionWithIndex and skip index construction on cold start.
package graphload

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"wqe/internal/distindex"
	"wqe/internal/graph"
)

// Source values reported in Result.Source.
const (
	SourceJSON     = "json"
	SourceSnapshot = "snapshot"
)

// sniffLen is how many leading bytes identify a snapshot (the magic).
const sniffLen = 8

// Result is one loaded graph plus the residency metadata a serving
// layer reports (/stats): where the graph came from and how long the
// load took.
type Result struct {
	G *graph.Graph
	// Index is the distance oracle restored from the snapshot's
	// embedded PLL labels; nil when the file carried none. No question
	// reads it; wqe -save-snapshot carries it into the file it writes.
	Index distindex.Index
	// Source is SourceJSON or SourceSnapshot; SnapshotVersion is the
	// binary format version read (0 for JSON).
	Source          string
	SnapshotVersion uint32
	// Elapsed is the wall time spent reading and validating the file,
	// including PLL restoration when labels were embedded.
	Elapsed time.Duration
}

// PLLRestored reports whether the load restored a distance index from
// embedded labels.
func (r *Result) PLLRestored() bool { return r.Index != nil }

// Open loads the graph at path, sniffing the format from its leading
// bytes — no format flag needed.
func Open(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// Read is Open over an arbitrary reader.
func Read(r io.Reader) (*Result, error) {
	start := time.Now()
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, err := br.Peek(sniffLen)
	if err != nil && err != io.EOF {
		return nil, err
	}
	// A file shorter than the magic cannot be a snapshot; fall through
	// and let the JSON reader report what it is.
	if graph.SniffSnapshot(prefix) {
		snap, err := graph.ReadSnapshot(br)
		if err != nil {
			return nil, err
		}
		res := &Result{
			G:               snap.G,
			Source:          SourceSnapshot,
			SnapshotVersion: snap.Version,
		}
		if len(snap.Aux) > 0 {
			pll, err := distindex.UnmarshalPLL(snap.G, snap.Aux)
			if err != nil {
				return nil, fmt.Errorf("embedded PLL labels: %w", err)
			}
			res.Index = pll
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}
	g, err := graph.ReadJSON(br)
	if err != nil {
		return nil, err
	}
	return &Result{G: g, Source: SourceJSON, Elapsed: time.Since(start)}, nil
}
