package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"wqe/internal/par"
)

// Package is one type-checked module package: the unit analyzers run on.
// Test files are excluded — the analyzers police library code, and the
// policies (panic-freedom, sorted iteration) deliberately do not bind
// tests.
type Package struct {
	// PkgPath is the import path ("wqe/internal/chase").
	PkgPath string
	// Fset is the file set shared by every package of one Load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Name returns the package name ("chase").
func (p *Package) Name() string { return p.Types.Name() }

// Module is a loaded, fully type-checked module tree.
type Module struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	Fset *token.FileSet
	// Pkgs lists the module packages in dependency (topological) order.
	Pkgs []*Package
}

// Load parses and type-checks every package under root (the directory
// containing go.mod), using only the standard library: module-internal
// imports are resolved against the packages loaded here, and everything
// else (the standard library) through the source importer. Directories
// named testdata, hidden directories, and _test.go files are skipped.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{Root: root, Path: modPath, Fset: fset}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	// Parse every package first so the import graph is known before any
	// type checking starts. Directories parse concurrently into indexed
	// slots (token.FileSet is safe for concurrent AddFile); the merge
	// walks the slots in the sorted directory order, so the package set
	// and the first reported error are schedule-independent. File base
	// offsets inside the FileSet DO vary with scheduling — nothing
	// downstream may compare raw token.Pos values across files, only
	// rendered Positions.
	slots := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	par.ForEach(par.Workers(0), len(dirs), func(i int) {
		slots[i], errs[i] = parseDir(fset, root, modPath, dirs[i])
	})
	parsed := make(map[string]*Package) // by import path
	for i, pkg := range slots {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if pkg != nil {
			parsed[pkg.PkgPath] = pkg
		}
	}

	order, err := topoOrder(parsed)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		local:    make(map[string]*types.Package),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	for _, pkg := range order {
		if err := typeCheck(pkg, imp); err != nil {
			return nil, err
		}
		imp.local[pkg.PkgPath] = pkg.Types
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// packageDirs walks root collecting directories that hold .go files.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// parseDir parses the non-test sources of one directory into a Package
// (nil when the directory holds no non-test Go files).
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	pkgPath := modPath
	if rel != "." {
		pkgPath = modPath + "/" + filepath.ToSlash(rel)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files}, nil
}

// imports returns the module-internal import paths of a parsed package.
func imports(pkg *Package, local map[string]*Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if _, ok := local[path]; ok && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// topoOrder sorts packages so every package follows its module-internal
// dependencies.
func topoOrder(pkgs map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(pkgs))
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		switch color[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		color[path] = gray
		for _, dep := range imports(pkgs[path], pkgs) {
			if err := visit(dep); err != nil {
				return err
			}
		}
		color[path] = black
		order = append(order, pkgs[path])
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter serves module-internal packages from the current Load
// and everything else from the stdlib source importer.
type moduleImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.local[path]; ok {
		return p, nil
	}
	return im.fallback.Import(path)
}

// typeCheck runs go/types over one parsed package.
func typeCheck(pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.PkgPath, pkg.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.PkgPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
