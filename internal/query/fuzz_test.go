package query

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wqe/internal/graph"
)

// fuzzNode reads a pattern node from text: the label on the first line,
// then one literal per line as attr, operator, kind and constant between
// tabs. Kind n is a Number (a float, or 0x and the sixteen hex digits of
// its bits, which is how a NaN payload is written), s a String, m a Number
// that also carries the constant as its Str. Lines that do not parse are
// skipped, so every input is some node.
func fuzzNode(text string) Node {
	label, rest, _ := strings.Cut(text, "\n")
	n := Node{Label: label}
	for _, line := range strings.Split(rest, "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			continue
		}
		op, err := graph.ParseOp(f[1])
		if err != nil {
			op = graph.GE + 1 + graph.Op(len(f[1])) // unknown operators are literals too
		}
		val := graph.S(f[3])
		if f[2] != "s" {
			num, err := strconv.ParseFloat(f[3], 64)
			if bits, hex := strings.CutPrefix(f[3], "0x"); hex {
				var b uint64
				b, err = strconv.ParseUint(bits, 16, 64)
				num = math.Float64frombits(b)
			}
			if err != nil {
				continue
			}
			val = graph.N(num)
			if f[2] == "m" {
				val.Str = f[3]
			}
		}
		n.Literals = append(n.Literals, Literal{Attr: f[0], Op: op, Val: val})
	}
	return n
}

// fuzzGraph is a small graph of the attribute shapes renderings cannot
// tell apart: -0 beside 0, the number 5 beside the string "5", a Number
// carrying a Str, "kv"="=w" beside "k"="v=w", labels, attributes and
// values that are empty or hold the delimiters a rendered key is cut by.
func fuzzGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(5))
	pick := func(vals ...graph.Value) graph.Value { return vals[rng.Intn(len(vals))] }
	gb := graph.NewBuilder()
	for i := 0; i < 96; i++ {
		attrs := map[string]graph.Value{
			"a":    pick(graph.N(0), graph.N(math.Copysign(0, -1)), graph.N(5), graph.S("5"), graph.S("x"), graph.S("1"), graph.S("1,b = 2")),
			"b":    pick(graph.S("2"), graph.S("3"), graph.N(2)),
			"c":    pick(graph.N(1), graph.N(2), graph.S("NaN"), graph.N(0)),
			"d":    pick(graph.N(5), graph.Value{Kind: graph.Number, Num: 5, Str: "five"}, graph.N(6), graph.N(4)),
			"code": pick(graph.N(5), graph.S("5")),
			"":     pick(graph.S(""), graph.N(0)),
		}
		switch rng.Intn(3) {
		case 0:
			attrs["kv"] = graph.S("=w")
		case 1:
			attrs["k"] = graph.S("v=w")
		}
		gb.AddNode([]string{"P", "F", "", "City of {x}|y"}[rng.Intn(4)], attrs)
	}
	return mustBuild(gb)
}

// FuzzNodeSig holds AppendNodeSig, Literal.AppendKey and Literal.Compare
// to what every cache of the engine assumes of them: nodes with equal
// signatures admit the same candidates, a signature does not depend on
// the order a node lists its literals in, and Compare is a total order
// that is zero exactly where the keys are equal. The corpus in
// testdata/fuzz/FuzzNodeSig is the pairs display text confuses.
func FuzzNodeSig(f *testing.F) {
	g := fuzzGraph()
	f.Fuzz(func(t *testing.T, a, b string) {
		na, nb := fuzzNode(a), fuzzNode(b)
		sigA, sigB := AppendNodeSig(nil, &na), AppendNodeSig(nil, &nb)

		shuffled := Node{Label: na.Label, Literals: slices.Clone(na.Literals)}
		rand.New(rand.NewSource(int64(len(a)))).Shuffle(len(shuffled.Literals), func(i, j int) {
			shuffled.Literals[i], shuffled.Literals[j] = shuffled.Literals[j], shuffled.Literals[i]
		})
		if got := AppendNodeSig(nil, &shuffled); !bytes.Equal(got, sigA) {
			t.Fatalf("signature %q of %v becomes %q when its literals are listed as %v", sigA, na, got, shuffled.Literals)
		}

		if bytes.Equal(sigA, sigB) {
			ca, cb := compileNode(g, na), compileNode(g, nb)
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if ca.Candidate(g, v) != cb.Candidate(g, v) {
					t.Fatalf("%v and %v share the signature %q and disagree on node %d %v", na, nb, sigA, v, g.Tuple(v))
				}
			}
		}

		lits := append(slices.Clone(na.Literals), nb.Literals...)
		lits = lits[:min(len(lits), 16)] // the triples below are cubic
		for _, x := range lits {
			for _, y := range lits {
				c := x.Compare(y)
				if c != -y.Compare(x) {
					t.Fatalf("Compare(%v, %v) = %d, reversed %d", x, y, c, y.Compare(x))
				}
				if same := bytes.Equal(x.AppendKey(nil), y.AppendKey(nil)); same != (c == 0) {
					t.Fatalf("Compare(%v, %v) = %d, keys equal: %v", x, y, c, same)
				}
				for _, z := range lits {
					if c <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
						t.Fatalf("%v <= %v <= %v, yet Compare(first, last) > 0", x, y, z)
					}
				}
			}
		}
	})
}
