// Command ledgercheck validates an experiment ledger (JSONL) as emitted by
// the -ledger flag of questbench/questsim: a single schema-versioned header
// first, every subsequent line a trial or cell record, seeds parseable,
// per-cell counts self-consistent, and every sampled trial matched by a cell
// summary. CI's ledger-smoke step runs it over a freshly generated ledger so
// a schema regression fails the build instead of silently producing files
// nothing can replay.
//
// Usage:
//
//	ledgercheck [-min-cells N] [-min-trials N] run.ledger
//
// Exit codes follow the tools/internal/cli contract: 0 valid, 1 validation
// findings, 2 usage, unreadable or corrupt input (a line that is not JSON).
package main

import (
	"flag"
	"fmt"
	"io"

	"quest/internal/ledger"
	"quest/tools/internal/cli"
)

func command() *cli.Command {
	fs := flag.NewFlagSet("ledgercheck", flag.ContinueOnError)
	minCells := fs.Int("min-cells", 1, "fail unless the ledger carries at least this many cell summaries")
	minTrials := fs.Int("min-trials", 0, "fail unless the ledger carries at least this many trial records")
	return &cli.Command{
		Name:  "ledgercheck",
		Usage: "[-min-cells N] [-min-trials N] run.ledger",
		NArgs: 1,
		Flags: fs,
		Run: func(args []string, stdout io.Writer) error {
			path := args[0]
			data, err := cli.ReadFile(path)
			if err != nil {
				return err
			}
			rep, err := ledger.Validate(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if rep.Cells < *minCells {
				return cli.Failf("%s: %d cell(s), want >= %d", path, rep.Cells, *minCells)
			}
			if rep.Trials < *minTrials {
				return cli.Failf("%s: %d trial record(s), want >= %d", path, rep.Trials, *minTrials)
			}
			fmt.Fprintf(stdout, "ledgercheck: %s OK — experiment %q, %d cell(s), %d trial record(s), %d stopped early\n",
				path, rep.Experiment, rep.Cells, rep.Trials, rep.StoppedEarly)
			return nil
		},
	}
}

func main() {
	command().Main()
}
