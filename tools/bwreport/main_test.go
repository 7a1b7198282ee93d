package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/bwprofile"
)

// writeProfile fabricates one valid quest-bw/1 artifact and returns its path.
func writeProfile(t *testing.T, dir, name, experiment, design string, peak uint64) string {
	t.Helper()
	r := bwprofile.New(4)
	r.Observe(0, bwprofile.BusLogical, bwprofile.ClassPrep, 1, 2)
	r.Observe(5, bwprofile.BusLogical, bwprofile.ClassClifford, peak/2, peak)
	r.Observe(6, bwprofile.BusReplay, bwprofile.ClassReplay, 7, 0)
	var buf bytes.Buffer
	config := map[string]string{}
	if design != "" {
		config["design"] = design
	}
	if err := r.WriteJSONL(&buf, experiment, config); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBwreportExitCodeContract extends the tools/internal/cli exit-code
// contract to this binary: 0 clean, 1 findings (invalid profile), 2
// unusable input (missing file, corrupt line, no arguments, unknown flag).
func TestBwreportExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	good := writeProfile(t, dir, "good", "questsim", "ram", 40)
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte(`{"record":"header","schema":"quest-other/9"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	garbled := filepath.Join(dir, "garbled.jsonl")
	// A garbled line right after the header: not the final line, so it is
	// corruption even for readers that tolerate a torn tail.
	mid := bytes.Replace(data, []byte("\n"), []byte("\n{torn\n"), 1)
	if err := os.WriteFile(garbled, mid, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"valid profile", []string{good}, 0},
		{"valid with -check", []string{"-check", good}, 0},
		{"invalid schema", []string{corrupt}, 1},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, 2},
		{"corrupt line mid-file", []string{"-check", garbled}, 2},
		{"no arguments", nil, 2},
		{"unknown flag", []string{"-nope", good}, 2},
	} {
		var out, errw bytes.Buffer
		if got := command().Execute(tc.args, &out, &errw); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, got, tc.want, errw.String())
		}
	}
}

func TestBwreportComparisonTable(t *testing.T) {
	dir := t.TempDir()
	ram := writeProfile(t, dir, "ram", "questsim", "ram", 40)
	fifo := writeProfile(t, dir, "fifo", "questsim", "fifo", 20)
	unit := writeProfile(t, dir, "unitcell", "questsim", "unitcell", 10)

	var out, errw bytes.Buffer
	if code := command().Execute([]string{unit, ram, fifo}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()
	// Rows key on design and sort by it regardless of argument order.
	f, r, u := strings.Index(got, "fifo"), strings.Index(got, "ram"), strings.Index(got, "unitcell")
	if f < 0 || r < 0 || u < 0 || !(f < r && r < u) {
		t.Errorf("rows not sorted by design (fifo@%d ram@%d unitcell@%d):\n%s", f, r, u, got)
	}
	if !strings.Contains(got, "burst") {
		t.Errorf("missing burstiness column:\n%s", got)
	}
	if !strings.Contains(got, "cache replayed 7") {
		t.Errorf("missing replay savings line:\n%s", got)
	}

	// Argument order must not change the table bytes.
	var out2 bytes.Buffer
	if code := command().Execute([]string{ram, fifo, unit}, &out2, &errw); code != 0 {
		t.Fatalf("reordered run: exit %d", code)
	}
	if out2.String() != got {
		t.Error("table bytes depend on argument order")
	}
}

func TestBwreportCheckNamesDesign(t *testing.T) {
	dir := t.TempDir()
	ram := writeProfile(t, dir, "ram", "questsim", "ram", 40)
	plain := writeProfile(t, dir, "plain", "questbench", "", 8)
	var out, errw bytes.Buffer
	if code := command().Execute([]string{"-check", ram, plain}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "design ram") {
		t.Errorf("check line missing design:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `experiment "questbench"`) {
		t.Errorf("check line missing experiment:\n%s", out.String())
	}
}
