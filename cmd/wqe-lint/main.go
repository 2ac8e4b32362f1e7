// Command wqe-lint runs the repo-specific static-analysis suite of
// internal/lint over the module: mapiter (deterministic map iteration
// in canonical-output packages), detsource (no nondeterminism sources
// in canonical-output packages or the module packages they import),
// errdrop (no silently discarded errors in internal packages and
// command mains), panicfree (no panics in library code), gobound (no
// goroutine spawns outside the internal/par worker pool), and
// lintignore (suppression directives must state a reason and name
// existing rules).
//
// Usage:
//
//	wqe-lint [-root dir] [-rules list] [-format text|github] [patterns...]
//
// Patterns select which packages findings are reported for: "./..."
// (everything, the default), or directory paths like ./internal/chase.
// The whole module is always loaded and type-checked regardless, since
// detsource follows imports module-wide.
//
// Output is one `file:line: rule: message` per finding; with
// -format=github each finding is instead a GitHub Actions workflow
// command (`::error file=…,line=…::…`), so CI failures annotate the
// offending lines in the pull-request diff. The exit status is 1 when
// anything is reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"wqe/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, loads the module,
// and prints findings to stdout. Exit code 0 means clean, 1 means
// findings, 2 means usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wqe-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root (default: walk up from cwd to go.mod)")
	rules := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	format := fs.String("format", "text", "findings output: text (file:line: rule: message) or github (workflow error annotations)")
	fs.Usage = func() {
		//lint:ignore errdrop terminal output; a failed diagnostic write has no useful handler
		fmt.Fprintf(stderr, "usage: wqe-lint [-root dir] [-rules list] [-format text|github] [patterns...]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			//lint:ignore errdrop terminal output; a failed diagnostic write has no useful handler
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "github" {
		return fail(stderr, fmt.Errorf("unknown -format %q (want text or github)", *format))
	}
	// Rules are checked before the module loads: a typo costs no
	// type-check, and is reported even where loading would fail.
	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		return fail(stderr, err)
	}

	dir := *root
	if dir == "" {
		dir, err = findModuleRoot()
		if err != nil {
			return fail(stderr, err)
		}
	}
	// Findings carry absolute paths; the root must be absolute too so
	// rel() can shorten them.
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}

	mod, err := lint.Load(dir)
	if err != nil {
		return fail(stderr, err)
	}

	findings := filterByPatterns(mod, lint.RunAll(mod, analyzers), fs.Args())

	for _, f := range findings {
		line := rel(dir, f)
		if *format == "github" {
			line = githubAnnotation(dir, f)
		}
		//lint:ignore errdrop terminal output; a failed diagnostic write has no useful handler
		fmt.Fprintln(stdout, line)
	}
	if len(findings) > 0 {
		//lint:ignore errdrop terminal output; a failed diagnostic write has no useful handler
		fmt.Fprintf(stderr, "wqe-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	//lint:ignore errdrop terminal output; a failed diagnostic write has no useful handler
	fmt.Fprintln(stderr, "wqe-lint:", err)
	return 2
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// filterByPatterns keeps findings under the directories the patterns
// name. "./..." and the empty pattern list select everything; a
// trailing "/..." selects a subtree. Relative patterns resolve against
// the module root, so `wqe-lint -root other/mod ./chase/...` means the
// chase directory of that module, not of the working directory.
func filterByPatterns(mod *lint.Module, findings []lint.Finding, patterns []string) []lint.Finding {
	if len(patterns) == 0 {
		return findings
	}
	var prefixes []string
	for _, p := range patterns {
		if p == "./..." || p == "..." {
			return findings
		}
		p = filepath.Clean(strings.TrimSuffix(p, "/..."))
		if !filepath.IsAbs(p) {
			p = filepath.Join(mod.Root, p)
		}
		prefixes = append(prefixes, p+string(filepath.Separator))
	}
	var out []lint.Finding
	for _, f := range findings {
		for _, pre := range prefixes {
			if strings.HasPrefix(f.Pos.Filename, pre) || filepath.Dir(f.Pos.Filename)+string(filepath.Separator) == pre {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// rel renders a finding with the file path relative to the module root
// (keeps CI logs readable).
func rel(root string, f lint.Finding) string {
	if r, err := filepath.Rel(root, f.Pos.Filename); err == nil {
		f.Pos.Filename = r
	}
	return f.String()
}

// githubAnnotation renders a finding as a GitHub Actions workflow
// command, so a failed lint job annotates the offending line in the
// pull-request diff instead of burying it in the job log.
func githubAnnotation(root string, f lint.Finding) string {
	file := f.Pos.Filename
	if r, err := filepath.Rel(root, file); err == nil {
		file = r
	}
	return fmt.Sprintf("::error file=%s,line=%d::%s",
		escapeProperty(filepath.ToSlash(file)), f.Pos.Line,
		escapeData(f.Rule+": "+f.Msg))
}

// escapeData escapes the message part of a workflow command.
func escapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeProperty escapes a workflow-command property value, which
// additionally reserves the property and command separators.
func escapeProperty(s string) string {
	s = escapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
