package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"quest/internal/ledger"
)

// bin is the questbench binary the tests drive, built once by TestMain so
// the flag wiring and observer plumbing of main run exactly as users see
// them.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "questbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "questbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// questbench runs the binary in dir and returns its stdout.
func questbench(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("questbench %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestGoldenDefaultRun pins every figure and table of the default run.
// After a deliberate change to a figure, regenerate the golden file with
// `go run ./cmd/questbench > cmd/questbench/testdata/questbench.golden`
// and list the changed values in the change description.
func TestGoldenDefaultRun(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "questbench.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(questbench(t, t.TempDir()), "\n")
	want := strings.Split(string(golden), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("default run differs from testdata/questbench.golden at line %d", i+1)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("default run has %d lines, golden has %d", len(got), len(want))
	}
}

// textSection is one "== name: desc ==" block of the text output.
type textSection struct {
	heading string     // "name: desc"
	rows    [][]string // data rows of its table
	notes   []string   // non-empty lines outside the table
}

var cellSep = regexp.MustCompile(`\s{2,}`)

// parseText splits text output into sections. A line followed by a
// dash-rule line is a table header; the rows run to the next blank line.
// Cells are separated by two or more spaces, which no cell contains.
func parseText(t *testing.T, out string) []textSection {
	t.Helper()
	var secs []textSection
	lines := strings.Split(out, "\n")
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		switch {
		case strings.HasPrefix(l, "== ") && strings.HasSuffix(l, " =="):
			secs = append(secs, textSection{heading: strings.TrimSuffix(strings.TrimPrefix(l, "== "), " ==")})
		case l == "":
		case len(secs) == 0:
			t.Fatalf("line %d outside any section: %q", i+1, l)
		case i+1 < len(lines) && strings.HasPrefix(lines[i+1], "---"):
			s := &secs[len(secs)-1]
			for i += 2; i < len(lines) && lines[i] != ""; i++ {
				s.rows = append(s.rows, cellSep.Split(strings.TrimRight(lines[i], " "), -1))
			}
		default:
			s := &secs[len(secs)-1]
			s.notes = append(s.notes, l)
		}
	}
	return secs
}

// TestMarkdownRendersTheTextTables requires -md to carry the same content
// as the text output: a "## name: desc" section per experiment, every data
// row as a pipe-table row, and every chart or summary line verbatim.
func TestMarkdownRendersTheTextTables(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "questbench.golden"))
	if err != nil {
		t.Fatal(err)
	}
	secs := parseText(t, string(golden))
	if len(secs) != len(experiments) {
		t.Fatalf("golden has %d sections, want %d", len(secs), len(experiments))
	}
	md := questbench(t, t.TempDir(), "-md")
	mdLines := map[string]bool{}
	for _, l := range strings.Split(md, "\n") {
		mdLines[l] = true
	}
	for _, s := range secs {
		if !mdLines["## "+s.heading] {
			t.Errorf("-md lacks the section heading %q", "## "+s.heading)
		}
		for _, r := range s.rows {
			if row := "| " + strings.Join(r, " | ") + " |"; !mdLines[row] {
				t.Errorf("%s: -md lacks the row %q", s.heading, row)
			}
		}
		for _, n := range s.notes {
			if !mdLines[n] {
				t.Errorf("%s: -md lacks the line %q", s.heading, n)
			}
		}
	}
	// Fixed anchors, independent of the golden file.
	for _, frag := range []string{
		"# QuEST evaluation report", "measured savings", "| SHOR-1024 |",
		"| 4 Channel = 1Kb x 4 |", "| 2420ns |", "| --- | --- |", "\n```\n",
	} {
		if !strings.Contains(md, frag) {
			t.Errorf("-md output missing %q", frag)
		}
	}

	// Named experiments select the same sections in -md as in text.
	sel := questbench(t, t.TempDir(), "-md", "fig2", "machine")
	var headings []string
	for _, l := range strings.Split(sel, "\n") {
		if strings.HasPrefix(l, "## ") {
			headings = append(headings, strings.SplitN(l, ":", 2)[0])
		}
	}
	if got := strings.Join(headings, ","); got != "## fig2,## machine" {
		t.Errorf("-md fig2 machine rendered sections %s", got)
	}
}

// TestMarkdownKeepsTheObservers requires -md to change only the output
// format: its ledger, heatmap and bandwidth profile equal the text run's,
// and its shards merge into the unsharded ledger.
func TestMarkdownKeepsTheObservers(t *testing.T) {
	dir := t.TempDir()
	run := func(prefix string, extra ...string) {
		args := append([]string{"-trials", "20",
			"-ledger", prefix + ".ledger", "-heatmap", prefix + ".heat", "-bw", prefix + ".bw"}, extra...)
		questbench(t, dir, append(args, "threshold", "memory")...)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	run("text")
	run("md", "-md")
	for _, ext := range []string{".ledger", ".heat", ".bw"} {
		if !bytes.Equal(read("md"+ext), read("text"+ext)) {
			t.Errorf("-md %s differs from the text run's", ext)
		}
	}
	rep, err := ledger.Validate(read("md.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells < 9 {
		t.Errorf("-md ledger has %d cells, want >= 9", rep.Cells)
	}

	var shards []*ledger.ShardLedger
	for _, i := range []string{"0", "1"} {
		run("shard"+i, "-md", "-shard", i+"/2")
		sh, err := ledger.ParseShard(read("shard" + i + ".ledger"))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	merged, err := ledger.Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, read("md.ledger")) {
		t.Error("merged -md shard ledgers differ from the unsharded -md ledger")
	}
}

// TestDocListsEveryExperiment keeps the package comment's experiment list
// equal to the experiments table, in order.
func TestDocListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	doc = strings.ReplaceAll(doc, "\n//", "")
	m := regexp.MustCompile(`name experiments: ([a-z0-9 ]+)\.`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("package comment has no \"name experiments: ...\" list")
	}
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	if got, want := strings.Join(strings.Fields(m[1]), " "), strings.Join(names, " "); got != want {
		t.Errorf("package comment lists %q, want %q", got, want)
	}
}
