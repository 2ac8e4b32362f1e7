package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file keeps the encoding/json walk ReadJSON used to be, verbatim
// but for its name and for not reserving what "meta" claims, as the
// oracle the scanner is checked against:
// FuzzReadJSON and the streaming tests compare the two graphs'
// WriteSnapshot bytes. It is exported so that the external test package
// (which may import datagen) can call it too.

// jsonMeta is the optional header WriteJSON emits first so ReadJSON can
// pre-size every arena before the first element arrives. Hand-authored
// files may omit it.
type jsonMeta struct {
	Nodes       int `json:"nodes"`
	Edges       int `json:"edges"`
	AttrEntries int `json:"attr_entries"`
}

// ReadJSONOracle parses a graph previously written by WriteJSON (or authored
// by hand in the same shape). Node ids must be 0..n-1. The decode
// streams: elements are consumed one json.Decoder token group at a time
// instead of materializing the whole document, and when the optional
// "meta" header is present the node/edge/attribute arenas are allocated
// once, up front.
func ReadJSONOracle(r io.Reader) (*Graph, error) {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g := NewBuilder()
	// Edges that arrive before the "nodes" section cannot be validated
	// or label-interned yet (interning them early would permute label
	// ids relative to the node-first order); buffer them.
	type pendingEdge struct {
		src, dst int
		label    string
	}
	var pending []pendingEdge
	nodesSeen := false
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("graph: decode: %w", err)
		}
		key, ok := tok.(string)
		if !ok {
			return nil, fmt.Errorf("graph: decode: unexpected token %v for object key", tok)
		}
		switch key {
		case "meta":
			var meta jsonMeta
			if err := dec.Decode(&meta); err != nil {
				return nil, fmt.Errorf("graph: decode meta: %w", err)
			}
			// The walk reserved the claimed counts here, so a header
			// claiming 10¹⁰ nodes ran it out of memory. Capacity is
			// invisible to the comparison, and FuzzReadJSON has such seeds.
		case "nodes":
			if err := readNodes(dec, g); err != nil {
				return nil, err
			}
			nodesSeen = true
		case "edges":
			if err := expectDelim(dec, '['); err != nil {
				return nil, fmt.Errorf("graph: decode edges: %w", err)
			}
			for dec.More() {
				var e jsonEdge
				if err := dec.Decode(&e); err != nil {
					return nil, fmt.Errorf("graph: decode edge: %w", err)
				}
				if nodesSeen {
					if err := addEdgeChecked(g, e.Src, e.Dst, e.Label); err != nil {
						return nil, err
					}
				} else {
					pending = append(pending, pendingEdge{e.Src, e.Dst, e.Label})
				}
			}
			if err := expectDelim(dec, ']'); err != nil {
				return nil, fmt.Errorf("graph: decode edges: %w", err)
			}
		default:
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, fmt.Errorf("graph: decode %q: %w", key, err)
			}
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	for _, e := range pending {
		if err := addEdgeChecked(g, e.src, e.dst, e.label); err != nil {
			return nil, err
		}
	}
	return g.Build()
}

// readNodes consumes the "nodes" array one element at a time.
func readNodes(dec *json.Decoder, g *Builder) error {
	if err := expectDelim(dec, '['); err != nil {
		return fmt.Errorf("graph: decode nodes: %w", err)
	}
	var (
		names []string    // scratch, reused across nodes
		tuple []AttrValue // scratch, reused across nodes
	)
	for i := 0; dec.More(); i++ {
		var n jsonNode
		if err := dec.Decode(&n); err != nil {
			return fmt.Errorf("graph: decode node: %w", err)
		}
		if n.ID != i {
			return fmt.Errorf("graph: node ids must be dense 0..n-1, got %d at index %d", n.ID, i)
		}
		// Intern in sorted-name order — same id-assignment order as
		// AddNode, so a streamed load is interner-identical to a
		// DOM load of the same file.
		names = names[:0]
		for name := range n.Attrs {
			names = append(names, name)
		}
		sort.Strings(names)
		tuple = tuple[:0]
		for _, name := range names {
			val, err := parseAttrScalar(n.Attrs[name])
			if err != nil {
				return fmt.Errorf("graph: attr %q of node %d is neither number nor string", name, i)
			}
			tuple = append(tuple, AttrValue{Attr: g.Attrs.Intern(name), Val: val})
		}
		g.AddNodeTuple(n.Label, tuple)
	}
	if err := expectDelim(dec, ']'); err != nil {
		return fmt.Errorf("graph: decode nodes: %w", err)
	}
	return nil
}

// parseAttrScalar interprets one raw attribute value: numbers stay
// numbers, strings stay strings, anything else is an error.
func parseAttrScalar(raw json.RawMessage) (Value, error) {
	var num float64
	if err := json.Unmarshal(raw, &num); err == nil {
		return N(num), nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return Value{}, err
	}
	return S(s), nil
}

func addEdgeChecked(g *Builder, src, dst int, label string) error {
	if src < 0 || src >= g.NumNodes() || dst < 0 || dst >= g.NumNodes() {
		return fmt.Errorf("graph: edge %d→%d out of range", src, dst)
	}
	g.AddEdge(NodeID(src), NodeID(dst), label)
	return nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, got %v", want, tok)
	}
	return nil
}
