package lint

import (
	"fmt"
	"strings"
)

// LintIgnore returns the lintignore analyzer: every `//lint:ignore`
// directive must carry a justification after the rule list. A bare
// directive reads as "trust me" — six months later nobody, including
// the author, knows whether the waived finding was a false positive or
// a deferred bug. Such a directive suppresses nothing (see ignoresOf)
// and is itself a finding, so the build surfaces both the unexplained
// waiver and whatever it tried to hide. A directive that names a rule
// the suite does not have — misspelled, or retired — is a finding too,
// so a waiver cannot outlive its rule silently.
func LintIgnore() *Analyzer {
	return &Analyzer{
		Name: "lintignore",
		Doc:  "lint:ignore directives must state a reason and name existing rules; a bare directive suppresses nothing",
		Run:  runLintIgnore,
	}
}

func runLintIgnore(mod *Module, pkg *Package) []Finding {
	known := map[string]bool{"*": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields, ok := directiveFields(c.Text)
				if !ok {
					continue
				}
				var what string
				switch {
				case len(fields) == 0:
					what = "names no rule; it suppresses nothing"
				case len(fields) == 1:
					what = fmt.Sprintf("waives %q without a justification; it suppresses nothing", fields[0])
				default:
					for _, r := range strings.Split(fields[0], ",") {
						if r = strings.TrimSpace(r); r != "" && !known[r] {
							what = fmt.Sprintf("waives %q, which is not a wqe-lint rule (misspelled or retired)", r)
							break
						}
					}
				}
				if what == "" {
					continue
				}
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(c.Pos()),
					Rule: "lintignore",
					Msg:  fmt.Sprintf("lint:ignore directive %s — write //lint:ignore <rule> <reason>", what),
				})
			}
		}
	}
	return out
}
