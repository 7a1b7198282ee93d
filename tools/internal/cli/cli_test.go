package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"quest/internal/jsonl"
)

func cmd(run func(args []string, stdout io.Writer) error) *Command {
	return &Command{Name: "x", Usage: "[-n N] arg", NArgs: 1, Run: run}
}

// TestExitCodeContract pins the 0/1/2 contract CI and the Makefile smoke
// targets rely on: 0 clean, 1 findings, 2 the check could not run.
func TestExitCodeContract(t *testing.T) {
	ok := func(args []string, stdout io.Writer) error { return nil }
	finding := func(args []string, stdout io.Writer) error { return Failf("regression in %s", args[0]) }
	usage := func(args []string, stdout io.Writer) error { return Usagef("cannot read %s", args[0]) }
	plain := func(args []string, stdout io.Writer) error { return errors.New("unclassified failure") }
	corrupt := func(args []string, stdout io.Writer) error { return fmt.Errorf("%s: %w", args[0], jsonl.ErrCorrupt) }

	cases := []struct {
		name string
		c    *Command
		argv []string
		want int
	}{
		{"clean run", cmd(ok), []string{"in.json"}, ExitOK},
		{"findings", cmd(finding), []string{"in.json"}, ExitFindings},
		{"usage error from run", cmd(usage), []string{"in.json"}, ExitUsage},
		{"plain error counts as finding", cmd(plain), []string{"in.json"}, ExitFindings},
		{"corrupt input is usage-class", cmd(corrupt), []string{"in.json"}, ExitUsage},
		{"missing positional arg", cmd(ok), nil, ExitUsage},
		{"excess positional args", cmd(ok), []string{"a", "b"}, ExitUsage},
		{"unknown flag", cmd(ok), []string{"-nope", "in.json"}, ExitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if got := tc.c.Execute(tc.argv, &out, &errw); got != tc.want {
				t.Errorf("Execute(%q) = %d, want %d (stderr: %s)", tc.argv, got, tc.want, errw.String())
			}
		})
	}
}

// TestReadFileUnreadableIsUsageClass pins that an unreadable input exits 2,
// not 1: the check never ran, so it must not masquerade as a finding.
func TestReadFileUnreadableIsUsageClass(t *testing.T) {
	c := cmd(func(args []string, stdout io.Writer) error {
		_, err := ReadFile(args[0])
		return err
	})
	var out, errw strings.Builder
	if got := c.Execute([]string{"testdata/definitely-missing.json"}, &out, &errw); got != ExitUsage {
		t.Fatalf("unreadable input exited %d, want %d", got, ExitUsage)
	}
}

// TestVariadicArity pins that NArgs < 0 accepts any argument count.
func TestVariadicArity(t *testing.T) {
	c := &Command{Name: "x", Usage: "[arg ...]", NArgs: -1,
		Run: func(args []string, stdout io.Writer) error {
			fmt.Fprintf(stdout, "%d args\n", len(args))
			return nil
		}}
	for _, argv := range [][]string{nil, {"a"}, {"a", "b", "c"}} {
		var out, errw strings.Builder
		if got := c.Execute(argv, &out, &errw); got != ExitOK {
			t.Errorf("Execute(%q) = %d, want 0", argv, got)
		}
	}
}

// TestFlagsReachRun pins that flag values parsed by Execute are visible to
// the Run closure — the pattern every checker main uses.
func TestFlagsReachRun(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	n := fs.Int("n", 1, "")
	c := &Command{Name: "x", Usage: "[-n N] arg", NArgs: 1, Flags: fs,
		Run: func(args []string, stdout io.Writer) error {
			if *n != 7 {
				return Failf("n = %d, want 7", *n)
			}
			return nil
		}}
	var out, errw strings.Builder
	if got := c.Execute([]string{"-n", "7", "in"}, &out, &errw); got != ExitOK {
		t.Fatalf("flag did not reach Run (exit %d, stderr %s)", got, errw.String())
	}
}
