package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// wantRe matches expectation markers in fixture sources:
//
//	for k := range m { // want detsource
var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

// mark is one expected (or observed) finding location.
type mark struct {
	file string // relative to the fixture root
	line int
	rule string
}

func (m mark) String() string { return fmt.Sprintf("%s:%d: %s", m.file, m.line, m.rule) }

func sortMarks(ms []mark) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.rule < b.rule
	})
}

// fixtureMarks scans every fixture source for want markers.
func fixtureMarks(t *testing.T, root string) []mark {
	t.Helper()
	var marks []mark
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				marks = append(marks, mark{file: rel, line: i + 1, rule: m[1]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixture corpus: %v", err)
	}
	return marks
}

// findingMarks converts analyzer output into comparable marks.
func findingMarks(t *testing.T, root string, findings []Finding) []mark {
	t.Helper()
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatalf("resolving fixture root: %v", err)
	}
	ms := make([]mark, 0, len(findings))
	for _, f := range findings {
		rel, err := filepath.Rel(abs, f.Pos.Filename)
		if err != nil {
			t.Fatalf("finding outside fixture root: %v", err)
		}
		ms = append(ms, mark{file: rel, line: f.Pos.Line, rule: f.Rule})
	}
	return ms
}

func diffMarks(t *testing.T, want, got []mark) {
	t.Helper()
	sortMarks(want)
	sortMarks(got)
	gotSet := map[mark]bool{}
	for _, m := range got {
		gotSet[m] = true
	}
	wantSet := map[mark]bool{}
	for _, m := range want {
		wantSet[m] = true
	}
	for _, m := range want {
		if !gotSet[m] {
			t.Errorf("missing finding: %s", m)
		}
	}
	for _, m := range got {
		if !wantSet[m] {
			t.Errorf("unexpected finding: %s", m)
		}
	}
}

const fixtureRoot = "testdata/src"

// corpus loads the fixture module once per test binary. The tests share
// it read-only: RunAll only reads a Module.
var corpus = sync.OnceValues(func() (*Module, error) { return Load(fixtureRoot) })

// TestFixtureCorpus runs every analyzer over the fixture module and
// compares the findings against the // want markers, exactly.
func TestFixtureCorpus(t *testing.T) {
	mod, err := corpus()
	if err != nil {
		t.Fatalf("loading fixture corpus: %v", err)
	}
	findings := RunAll(mod, Analyzers())
	if len(findings) == 0 {
		t.Fatal("fixture corpus produced no findings; wqe-lint must exit non-zero on it")
	}
	diffMarks(t, fixtureMarks(t, fixtureRoot), findingMarks(t, fixtureRoot, findings))
}

// TestAnalyzersIndividually reruns each analyzer alone and checks it
// reports exactly the markers carrying its rule name — i.e. no analyzer
// leaks findings into another's scope.
func TestAnalyzersIndividually(t *testing.T) {
	mod, err := corpus()
	if err != nil {
		t.Fatalf("loading fixture corpus: %v", err)
	}
	all := fixtureMarks(t, fixtureRoot)
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			var want []mark
			for _, m := range all {
				if m.rule == a.Name {
					want = append(want, m)
				}
			}
			if len(want) == 0 {
				t.Fatalf("fixture corpus has no markers for rule %q", a.Name)
			}
			got := findingMarks(t, fixtureRoot, RunAll(mod, []*Analyzer{a}))
			diffMarks(t, want, got)
		})
	}
}

// TestFindingString pins the file:line: rule: message output contract.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:  token.Position{Filename: "a/b.go", Line: 7, Column: 3},
		Rule: "detsource",
		Msg:  "map iteration order leaks",
	}
	if got, want := f.String(), "a/b.go:7: detsource: map iteration order leaks"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestModuleIsClean lints the wqe module itself: the tree must stay
// free of findings, so the lint gate is enforced by go test ./... too.
func TestModuleIsClean(t *testing.T) {
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading wqe module: %v", err)
	}
	for _, f := range RunAll(mod, Analyzers()) {
		t.Errorf("%s", f)
	}
}
