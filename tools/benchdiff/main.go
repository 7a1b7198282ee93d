// Command benchdiff compares two benchsuite JSON reports (see
// internal/benchsuite) and fails when a benchmark regressed beyond the
// allowed ratio. CI runs it with the committed baseline (BENCH_PR6.json)
// against a fresh report from `questbench -bench-json`, turning decoder and
// machine-loop slowdowns into failing checks.
//
// Usage:
//
//	benchdiff [-max-regress 0.30] baseline.json current.json
//
// A case is a regression when current ns/op exceeds baseline ns/op by more
// than -max-regress (0.30 = +30%). Cases present in only one report are
// listed but never fail the run, so adding or retiring benchmarks does not
// require touching the baseline in the same commit. A report whose schema
// is absent or not the current quest-bench layout is refused (exit 2).
//
// Allocation movement (B/op, allocs/op) is compared as well but only warns:
// allocation counts are exact, so any growth is reported, yet a memory shift
// alone never fails the run — latency is the gate, allocations are the hint
// that explains it.
//
// Exit codes follow the tools/internal/cli contract: 0 clean, 1 regressions,
// 2 usage or unreadable/unparseable input.
package main

import (
	"flag"
	"io"

	"quest/internal/benchsuite"
	"quest/tools/internal/cli"
)

func command() *cli.Command {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	maxRegress := fs.Float64("max-regress", 0.30,
		"fail when ns/op grows by more than this fraction over baseline")
	return &cli.Command{
		Name:  "benchdiff",
		Usage: "[-max-regress 0.30] baseline.json current.json",
		NArgs: 2,
		Flags: fs,
		Run: func(args []string, stdout io.Writer) error {
			base, err := readReport(args[0])
			if err != nil {
				return err
			}
			cur, err := readReport(args[1])
			if err != nil {
				return err
			}
			regressions, err := compare(stdout, base, cur, *maxRegress)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			if regressions > 0 {
				return cli.Failf("%d case(s) regressed beyond +%.0f%%", regressions, 100**maxRegress)
			}
			return nil
		},
	}
}

func readReport(path string) (benchsuite.Report, error) {
	data, err := cli.ReadFile(path)
	if err != nil {
		return benchsuite.Report{}, err
	}
	r, err := benchsuite.ReadReport(data)
	if err != nil {
		return benchsuite.Report{}, cli.Usagef("parsing %s: %v", path, err)
	}
	return r, nil
}

func main() {
	command().Main()
}
