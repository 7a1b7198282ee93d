package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a file tree under dir from path -> content.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for path, content := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// skeleton returns a minimal module defining every hot root in
// questvet.GraphConfig (specs are suffix-matched), so the graph resolves
// and a clean tree really exits 0.
func skeleton() map[string]string {
	return map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/mc/mc.go": `package mc

func Run() int { return 0 }
`,
		"internal/decoder/decoder.go": `package decoder

type GlobalDecoder struct{}

func (g *GlobalDecoder) Match() {}
`,
		"internal/mce/mce.go": `package mce

type MCE struct{}

func (m *MCE) StepCycle() {}
`,
		"internal/master/master.go": `package master

type Master struct{}

func (m *Master) StepCycle() {}
`,
	}
}

const sinkSrc = `package ledger

type W struct{}

func (w *W) Write() error { return nil }
`

const dropSrc = `package app

import "tmpmod/internal/ledger"

func Use(w *ledger.W) { w.Write() }
`

const dropSrc2 = `package app

import "tmpmod/internal/ledger"

func Use2(w *ledger.W) { w.Write() }
`

func execIn(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	t.Chdir(dir)
	var out, errw bytes.Buffer
	code := command().Execute(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestQuestvetExitCodeContract pins the binary to the tools/internal/cli
// contract: 0 clean (or baseline-covered), 1 findings (or baseline drift),
// 2 could not run.
func TestQuestvetExitCodeContract(t *testing.T) {
	clean := t.TempDir()
	writeTree(t, clean, skeleton())

	dirty := t.TempDir()
	writeTree(t, dirty, skeleton())
	writeTree(t, dirty, map[string]string{
		"internal/ledger/ledger.go": sinkSrc,
		"app/app.go":                dropSrc,
	})

	badBudget := t.TempDir()
	writeTree(t, badBudget, skeleton())
	writeTree(t, badBudget, map[string]string{
		"questvet-budgets.json": `{"schema":"quest-wrong/9","budgets":[]}`,
	})

	cases := []struct {
		name string
		dir  string
		args []string
		want int
	}{
		{"clean tree", clean, nil, 0},
		{"clean tree json", clean, []string{"-json"}, 0},
		{"finding", dirty, nil, 1},
		{"finding in selected package", dirty, []string{"./app/..."}, 1},
		{"finding outside selection", dirty, []string{"./internal/mc"}, 0},
		{"pattern matches nothing", clean, []string{"./nonexistent"}, 2},
		{"missing baseline file", clean, []string{"-baseline", "absent.json"}, 2},
		{"malformed budget file", badBudget, nil, 2},
		{"unknown flag", clean, []string{"-nope"}, 2},
	}
	for _, tc := range cases {
		code, _, errw := execIn(t, tc.dir, tc.args...)
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.want, errw)
		}
	}
}

// TestQuestvetBaselineFlow pins the diff-aware gate end to end: regenerate
// a baseline over a dirty tree (exit 0), diff clean against it (exit 0),
// introduce a synthetic new finding (exit 1), fix the accepted finding so
// the baseline goes stale (exit 1).
func TestQuestvetBaselineFlow(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, skeleton())
	writeTree(t, dir, map[string]string{
		"internal/ledger/ledger.go": sinkSrc,
		"app/app.go":                dropSrc,
	})

	if code, _, errw := execIn(t, dir, "-write-baseline", "questvet-baseline.json"); code != 0 {
		t.Fatalf("write-baseline: exit %d, stderr: %s", code, errw)
	}
	if code, _, errw := execIn(t, dir, "-baseline", "questvet-baseline.json"); code != 0 {
		t.Fatalf("baseline-covered run: exit %d, stderr: %s", code, errw)
	}

	// A synthetic new finding fails the baseline run.
	writeTree(t, dir, map[string]string{"app/app2.go": dropSrc2})
	code, out, _ := execIn(t, dir, "-baseline", "questvet-baseline.json")
	if code != 1 {
		t.Fatalf("new finding vs baseline: exit %d, want 1", code)
	}
	if !strings.Contains(out, "new finding") {
		t.Errorf("output does not name the new finding:\n%s", out)
	}

	// Fixing the accepted finding leaves the baseline stale, which must
	// also fail until it is regenerated.
	if err := os.Remove(filepath.Join(dir, "app", "app2.go")); err != nil {
		t.Fatal(err)
	}
	writeTree(t, dir, map[string]string{"app/app.go": `package app
`})
	code, out, _ = execIn(t, dir, "-baseline", "questvet-baseline.json")
	if code != 1 || !strings.Contains(out, "stale baseline entry") {
		t.Fatalf("stale baseline: exit %d, output:\n%s", code, out)
	}
}

// TestQuestvetSARIFOutput checks that -sarif writes a parseable artifact
// naming the analyzer and file of each finding.
func TestQuestvetSARIFOutput(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, skeleton())
	writeTree(t, dir, map[string]string{
		"internal/ledger/ledger.go": sinkSrc,
		"app/app.go":                dropSrc,
	})
	sarif := filepath.Join(dir, "questvet.sarif")
	if code, _, errw := execIn(t, dir, "-sarif", sarif); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errw)
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"2.1.0"`, `"errsink"`, "app/app.go"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SARIF missing %s:\n%s", want, data)
		}
	}
}
