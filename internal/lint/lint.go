// Package lint implements wqe's repo-specific static-analysis suite
// using only the standard library's go/parser, go/ast, and go/types.
//
// Six analyzers enforce the invariants the paper's algorithms depend on
// for reproducible output, each one a defect that neither `go vet`,
// `-race` nor the tests catch (DESIGN.md §9 names the probe for each):
//
//   - mapiter: no raw `for range` over maps in canonical-output
//     packages (query, ops, chase, exemplar) — Go randomizes map
//     iteration order, which silently breaks tie-broken top-k ranking;
//     collect keys and sort them first.
//   - detsource: nondeterminism sources (raw map range, time.Now,
//     global math/rand, multi-way select) must not appear in a
//     canonical-output package or in any module package one imports,
//     directly or transitively.
//   - errdrop: internal packages and command mains must not silently
//     discard error returns (`_ =` or bare call statements).
//   - panicfree: library code must not panic; only functions whose doc
//     comment carries an `invariant:` marker may, to assert genuinely
//     unreachable states.
//   - gobound: no raw `go` statements outside internal/par — all
//     fan-out goes through the bounded, joined, panic-propagating
//     worker pool, keeping output independent of completion order.
//   - lintignore: a `//lint:ignore` directive must carry a
//     justification and name existing rules; a bare directive is itself
//     a finding and suppresses nothing.
//
// Any finding can be suppressed with a trailing or preceding
// `//lint:ignore <rule> <reason>` comment — the reason is mandatory.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"wqe/internal/par"
)

// Finding is one analyzer report.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical file:line: rule: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one lint pass. Run receives a fully type-checked package
// and the whole module (for cross-package facts such as the import
// graph) and reports findings; suppression via lint:ignore is applied
// by the driver.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the analyzer runs on the package at all.
	Applies func(pkg *Package) bool
	Run     func(mod *Module, pkg *Package) []Finding
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapIter(),
		DetSource(),
		ErrDrop(),
		PanicFree(),
		GoBound(),
		LintIgnore(),
	}
}

// RunAll loads nothing itself: it applies every analyzer to every
// package of an already-loaded module, filters suppressed findings, and
// returns the remainder sorted by position. Packages are analyzed
// concurrently (GOMAXPROCS workers) into indexed slots, so the output
// does not depend on scheduling: the slot order is the package order,
// and the final sort is by position, rule, and message.
func RunAll(mod *Module, analyzers []*Analyzer) []Finding {
	slots := make([][]Finding, len(mod.Pkgs))
	par.ForEach(par.Workers(0), len(mod.Pkgs), func(i int) {
		pkg := mod.Pkgs[i]
		ig := ignoresOf(pkg)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg) {
				continue
			}
			for _, f := range a.Run(mod, pkg) {
				if ig.suppressed(f) {
					continue
				}
				slots[i] = append(slots[i], f)
			}
		}
	})
	var out []Finding
	for _, s := range slots {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out
}
