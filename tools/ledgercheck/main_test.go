package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/ledger"
)

// writeLedger fabricates one valid ledger (one cell of two trials) and
// returns its bytes.
func writeLedger(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := ledger.NewWriter(&buf, "ledgercheck-test", map[string]string{"suite": "ledgercheck"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.WriteTrial(ledger.Trial{Cell: "c", Trial: i, Seed: ledger.SeedString(uint64(i) + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteCell(ledger.Cell{Cell: "c", Seed: ledger.SeedString(9), Budget: 2, Trials: 2, WilsonHi: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLedgercheckExitCodeContract extends the tools/internal/cli exit-code
// contract to this binary: 0 valid, 1 findings (an invalid ledger, too few
// cells), 2 unusable input (missing file, corrupt line, no arguments,
// unknown flag).
func TestLedgercheckExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	data := writeLedger(t)
	write := func(name string, b []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.jsonl", data)
	// Drop the summary: readable, but its trial records dangle.
	dangling := write("dangling.jsonl", data[:bytes.LastIndex(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))+1])
	garbled := write("garbled.jsonl", bytes.Replace(data, []byte("\n"), []byte("\n{torn\n"), 1))

	for _, tc := range []struct {
		name string
		argv []string
		want int
	}{
		{"valid ledger", []string{good}, 0},
		{"too few cells", []string{"-min-cells", "2", good}, 1},
		{"invalid ledger", []string{dangling}, 1},
		{"corrupt line mid-file", []string{garbled}, 2},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, 2},
		{"no arguments", nil, 2},
		{"unknown flag", []string{"-nope", good}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if got := command().Execute(tc.argv, &out, &errw); got != tc.want {
				t.Errorf("exit %d, want %d (stderr: %s)", got, tc.want, errw.String())
			}
		})
	}
}
