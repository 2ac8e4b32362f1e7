package main

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wqe/internal/lint"
)

func lintFinding(file string, line int, rule, msg string) lint.Finding {
	return lint.Finding{Pos: token.Position{Filename: file, Line: line}, Rule: rule, Msg: msg}
}

var update = flag.Bool("update", false, "rewrite golden files from current output")

// fixtureRoot is the lint package's marker-annotated fixture module —
// the CLI test reuses it so the golden file and the marker corpus can
// never drift apart silently.
const fixtureRoot = "../../internal/lint/testdata/src"

// runOnce invokes the CLI entry point and returns stdout, stderr, and
// the exit code.
func runOnce(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestGoldenFixture pins the exact end-to-end findings text over the
// fixture module, and that two consecutive runs are byte-identical —
// the determinism contract CI relies on.
func TestGoldenFixture(t *testing.T) {
	out1, errText, code := runOnce(t, "-root", fixtureRoot)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr:\n%s", code, errText)
	}
	if !strings.Contains(errText, "finding(s)") {
		t.Errorf("stderr should carry the findings summary, got %q", errText)
	}

	golden := filepath.Join("testdata", "fixture.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out1), 0o644); err != nil {
			t.Fatalf("updating golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if out1 != string(want) {
		t.Errorf("output differs from %s (rerun with -update after intended changes):\ngot:\n%s\nwant:\n%s", golden, out1, want)
	}

	out2, _, code2 := runOnce(t, "-root", fixtureRoot)
	if code2 != 1 || out2 != out1 {
		t.Errorf("second run differs (code %d): the findings stream must be byte-identical across runs", code2)
	}
}

// TestGithubFormat pins the -format=github annotation stream: one
// workflow command per finding, same count and order as the text
// stream, byte-identical across runs.
func TestGithubFormat(t *testing.T) {
	text, _, _ := runOnce(t, "-root", fixtureRoot)
	out1, _, code := runOnce(t, "-root", fixtureRoot, "-format", "github")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	textLines := strings.Split(strings.TrimSpace(text), "\n")
	ghLines := strings.Split(strings.TrimSpace(out1), "\n")
	if len(ghLines) != len(textLines) {
		t.Fatalf("github stream has %d lines, text stream %d — formats must report identically",
			len(ghLines), len(textLines))
	}
	for _, line := range ghLines {
		if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, ",line=") {
			t.Errorf("malformed annotation: %s", line)
		}
		if strings.Contains(line, "\n") || strings.Contains(line, "\r") {
			t.Errorf("annotation must be a single line: %q", line)
		}
	}
	// The fixture messages contain colons after escaping-relevant text;
	// spot-check one known finding keeps its rule prefix in the message
	// part (after the :: separator).
	if !strings.Contains(out1, "::mapiter: ") {
		t.Errorf("annotations should carry 'rule: message' after the data separator:\n%.300s", out1)
	}
	out2, _, _ := runOnce(t, "-root", fixtureRoot, "-format", "github")
	if out2 != out1 {
		t.Error("github annotation stream must be byte-identical across runs")
	}
}

// TestGithubEscaping pins the workflow-command data escaping on a
// synthetic finding.
func TestGithubEscaping(t *testing.T) {
	f := lintFinding("a,b.go", 3, "rule", "100% broken\nsecond line")
	got := githubAnnotation("/", f)
	want := "::error file=a%2Cb.go,line=3::rule: 100%25 broken%0Asecond line"
	if got != want {
		t.Errorf("githubAnnotation = %q, want %q", got, want)
	}
}

// TestBadFormat pins exit 2 on an unknown -format value.
func TestBadFormat(t *testing.T) {
	_, errText, code := runOnce(t, "-root", fixtureRoot, "-format", "xml")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, errText)
	}
	if !strings.Contains(errText, "xml") {
		t.Errorf("error should name the unknown format, got %q", errText)
	}
}

// TestCleanModule pins exit 0 and empty output on a module with no
// findings.
func TestCleanModule(t *testing.T) {
	out, errText, code := runOnce(t, "-root", filepath.Join("testdata", "clean"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errText)
	}
	if out != "" {
		t.Errorf("clean module should print nothing, got:\n%s", out)
	}
}

// TestLoadError pins exit 2 when the root is not a module.
func TestLoadError(t *testing.T) {
	_, errText, code := runOnce(t, "-root", t.TempDir())
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, errText)
	}
	if !strings.Contains(errText, "wqe-lint:") {
		t.Errorf("load errors must be reported on stderr, got %q", errText)
	}
}

// TestBadRule pins exit 2 on an unknown -rules entry, named before any
// load: on a root that is no module at all, the rule is still the error.
func TestBadRule(t *testing.T) {
	for _, root := range []string{fixtureRoot, t.TempDir()} {
		_, errText, code := runOnce(t, "-root", root, "-rules", "nosuchrule")
		if code != 2 {
			t.Fatalf("root %s: exit code = %d, want 2; stderr:\n%s", root, code, errText)
		}
		if !strings.Contains(errText, "nosuchrule") {
			t.Errorf("root %s: error should name the unknown rule, got %q", root, errText)
		}
	}
}

// TestPatternFilter pins that positional patterns narrow the report
// without changing what is analyzed.
func TestPatternFilter(t *testing.T) {
	out, _, code := runOnce(t, "-root", fixtureRoot, "./det/...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "det/") {
			t.Errorf("pattern ./det/... leaked a foreign finding: %s", line)
		}
	}
	// The import chain from chase into det must survive the filter:
	// analysis is module-wide even when reporting is narrowed.
	if !strings.Contains(out, "imported by canonical output via chase → det") {
		t.Errorf("expected the cross-package import chain in filtered output:\n%s", out)
	}
}
