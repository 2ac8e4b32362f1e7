package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// canonicalOutputPkgs are the packages whose computation feeds
// canonical, user-visible output (ranked operator lists, rewrite keys,
// JSON renderings). Raw map iteration there makes top-k tie-breaking
// depend on Go's randomized map order.
var canonicalOutputPkgs = map[string]bool{
	"query":    true,
	"ops":      true,
	"chase":    true,
	"exemplar": true,
}

// DetSource returns the detsource analyzer: nondeterminism sources must
// not appear where they can reach canonical output — in a
// canonical-output package (query, ops, chase, exemplar) or in any
// module package one of them imports, directly or transitively.
//
// A raw map range (unless it only collects keys or values for sorting),
// a wall-clock read, a draw from the global math/rand or a multi-way
// select perturbs canonical output as much from a helper package as from
// a canonical one: Go randomizes map iteration order, which silently
// breaks tie-broken top-k ranking. Scope is by import, not by call:
// every function of an imported package counts, whether or not
// canonical code calls it, and a source injected from a package no
// canonical package imports (a benchmark's clock, say) is out of scope.
// Each finding names the import chain that puts its package in scope.
func DetSource() *Analyzer {
	return &Analyzer{
		Name: "detsource",
		Doc:  "nondeterminism sources must not appear in canonical-output packages or the module packages they import",
		Run: func(mod *Module, pkg *Package) []Finding {
			chain := importChain(mod, pkg)
			if chain == nil {
				return nil
			}
			return scanDetSources(pkg, chainDesc(mod, chain))
		},
	}
}

// importChain returns the shortest chain of module-internal imports
// from a canonical-output package to target (just target when it is
// canonical itself), or nil when no canonical package imports it.
func importChain(mod *Module, target *Package) []*Package {
	byPath := make(map[string]*Package, len(mod.Pkgs))
	for _, p := range mod.Pkgs {
		byPath[p.PkgPath] = p
	}
	parent := map[*Package]*Package{}
	var queue []*Package
	for _, p := range mod.Pkgs {
		if canonicalOutputPkgs[p.Name()] {
			parent[p] = nil
			queue = append(queue, p)
		}
	}
	_, found := parent[target]
	for len(queue) > 0 && !found {
		p := queue[0]
		queue = queue[1:]
		for _, path := range imports(p, byPath) {
			dep := byPath[path]
			if _, seen := parent[dep]; !seen {
				parent[dep] = p
				queue = append(queue, dep)
				found = found || dep == target
			}
		}
	}
	if !found {
		return nil
	}
	var chain []*Package
	for p := target; p != nil; p = parent[p] {
		chain = append(chain, p)
	}
	slices.Reverse(chain)
	return chain
}

// chainDesc renders an import chain for the diagnostic.
func chainDesc(mod *Module, chain []*Package) string {
	if len(chain) == 1 {
		return fmt.Sprintf("in canonical-output package %s", chain[0].Name())
	}
	paths := make([]string, len(chain))
	for i, p := range chain {
		paths[i] = displayPath(mod, p)
	}
	return "imported by canonical output via " + strings.Join(paths, " → ")
}

// displayPath shortens a package import path to its module-relative
// form ("wqe/internal/chase" → "internal/chase"); the root package is
// shown by name.
func displayPath(mod *Module, p *Package) string {
	if p.PkgPath == mod.Path {
		return p.Name()
	}
	return strings.TrimPrefix(p.PkgPath, mod.Path+"/")
}

// scanDetSources walks a package in scope for the four source kinds.
func scanDetSources(pkg *Package, via string) []Finding {
	var out []Finding
	info := pkg.Info
	report := func(node ast.Node, msg string, args ...any) {
		out = append(out, Finding{
			Pos:  pkg.Fset.Position(node.Pos()),
			Rule: "detsource",
			Msg:  fmt.Sprintf(msg, args...),
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.RangeStmt:
				t := info.TypeOf(node.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap || collectOnlyBody(info, node) {
					return true
				}
				report(node, "range over map has nondeterministic order, %s; "+
					"collect keys and sort them first, or //lint:ignore detsource <reason>", via)
			case *ast.SelectorExpr:
				pkgPath, name, ok := stdlibUse(info, node)
				switch {
				case !ok:
				case pkgPath == "time" && name == "Now":
					report(node, "time.Now reads the wall clock, %s; "+
						"inject a clock, or //lint:ignore detsource <reason>", via)
				case pkgPath == "math/rand" && name != "New" && name != "NewSource":
					report(node, "math/rand.%s draws from the global random source, %s; "+
						"use rand.New(rand.NewSource(seed)), or //lint:ignore detsource <reason>", name, via)
				}
			case *ast.SelectStmt:
				// Randomness needs two comm cases ready at once. A single comm
				// case — with or without a default (the non-blocking try) — is
				// deterministic: the spec's pseudo-random choice only arbitrates
				// between ready comm cases, and default never races.
				comm := 0
				for _, clause := range node.Body.List {
					if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					report(node, "select with multiple cases picks a ready case at random, %s; "+
						"restructure, or //lint:ignore detsource <reason>", via)
				}
			}
			return true
		})
	}
	return out
}

// stdlibUse resolves a selector to (package path, name) when it names a
// package-level function or value of an imported package; a type name
// (rand.Rand in a field declaration, say) is not a use.
func stdlibUse(info *types.Info, sel *ast.SelectorExpr) (string, string, bool) {
	if _, isMethod := info.Selections[sel]; isMethod {
		return "", "", false
	}
	obj := info.Uses[sel.Sel]
	if _, isType := obj.(*types.TypeName); obj == nil || isType || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// collectOnlyBody reports whether every statement of a range-over-map
// body only gathers the iteration variables into slices via append —
// the first half of the collect-then-sort idiom, which is safe because
// the subsequent sort re-establishes a canonical order.
func collectOnlyBody(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		if obj := info.Uses[fn]; obj != nil && obj != types.Universe.Lookup("append") {
			return false
		}
	}
	return true
}
