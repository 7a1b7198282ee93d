package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"quest/internal/benchsuite"
	"quest/tools/internal/cli"
)

// TestSchemaCheckedOnRead pins that benchdiff refuses (exit 2) a report
// whose schema is absent or foreign, even against a baseline with the same
// defect — two empty objects used to compare clean — and accepts a pair of
// reports in the current schema.
func TestSchemaCheckedOnRead(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var good bytes.Buffer
	if err := report(benchsuite.Result{Name: "decode", NsPerOp: 1000}).WriteJSON(&good); err != nil {
		t.Fatal(err)
	}
	ok := write("ok.json", good.String())
	empty := write("empty.json", "{}")
	foreign := write("foreign.json", `{"schema":"quest-bench/0","results":[]}`)
	for _, tc := range []struct {
		name       string
		base, cur  string
		wantStatus int
	}{
		{"both empty", empty, empty, cli.ExitUsage},
		{"empty current", ok, empty, cli.ExitUsage},
		{"foreign baseline", foreign, ok, cli.ExitUsage},
		{"current schema", ok, ok, 0},
	} {
		var out, errw bytes.Buffer
		if got := command().Execute([]string{tc.base, tc.cur}, &out, &errw); got != tc.wantStatus {
			t.Errorf("%s: exit %d, want %d (stderr %s)", tc.name, got, tc.wantStatus, errw.String())
		}
	}
}
