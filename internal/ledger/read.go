package ledger

// This file is the ledger's one reader. parse turns quest-ledger/1 bytes
// into the header and the cell blocks; Validate (below), ParseShard
// (merge.go) and NewResume (resume.go) are checks over that one parse, each
// enforcing what its job needs of the blocks.

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"

	"quest/internal/jsonl"
)

// ErrCorrupt marks ledger bytes that cannot be parsed at all — garbled or
// truncated JSON, a field of the wrong type. It is jsonl.ErrCorrupt: the
// checker tools map it to exit 2 (the check could not run); every other
// reader failure is a finding (exit 1): the input was readable, and what it
// said was wrong.
var ErrCorrupt = jsonl.ErrCorrupt

// CellBlock is one contiguous run of a cell's records: its trial records in
// file order, then — unless the file ends or another cell's record comes
// first — the summary that closes the block.
type CellBlock struct {
	// Name is the cell name shared by every line of the block.
	Name string
	// Lines holds the raw JSONL lines without trailing newlines, verbatim so
	// a merge is a pure re-interleaving with no re-marshaling drift.
	Lines [][]byte

	trials  []Trial
	summary *Cell // nil when no summary closes the block
	line    int   // line number of the block's first record
}

// ShardLedger is one parsed ledger: its header plus its cell blocks in file
// order (for a shard, global sweep order restricted to the cells the shard
// owns).
type ShardLedger struct {
	Header Header
	// headerLine is the raw header line, kept for single-shard identity
	// merges.
	headerLine []byte
	Cells      []CellBlock
	// torn reports whether a torn final line was dropped.
	torn bool
}

// parse reads a ledger into its header and cell blocks. A trial record
// extends the open block when it names the same cell and opens a new block
// otherwise; a summary closes its cell's open block, or stands as a block of
// its own. tornOK drops a torn final line (resume's crash tolerance).
func parse(data []byte, tornOK bool) (*ShardLedger, error) {
	sh := &ShardLedger{}
	var open *CellBlock
	extend := func(name string, l jsonl.Line) *CellBlock {
		if open == nil || open.Name != name {
			sh.Cells = append(sh.Cells, CellBlock{Name: name, line: l.No})
			open = &sh.Cells[len(sh.Cells)-1]
		}
		open.Lines = append(open.Lines, bytes.Clone(l.Raw))
		return open
	}
	format := jsonl.Format{Schema: Schema, Torn: tornOK}
	torn, err := format.Read(data, func(l jsonl.Line) error {
		switch l.Kind {
		case KindHeader:
			sh.headerLine = bytes.Clone(l.Raw)
			return l.Decode(&sh.Header)
		case KindTrial:
			var t Trial
			if err := l.Decode(&t); err != nil {
				return err
			}
			if t.Cell == "" {
				return l.Errorf("trial record missing cell name")
			}
			b := extend(t.Cell, l)
			b.trials = append(b.trials, t)
		case KindCell:
			var c Cell
			if err := l.Decode(&c); err != nil {
				return err
			}
			if c.Cell == "" {
				return l.Errorf("cell record missing name")
			}
			extend(c.Cell, l).summary = &c
			open = nil
		default:
			return l.Errorf("unknown record kind %q", l.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sh.torn = torn
	return sh, nil
}

// ValidateReport summarizes a validated ledger.
type ValidateReport struct {
	Experiment string
	Cells      int
	Trials     int
	// StoppedEarly counts cells that converged before their trial budget.
	StoppedEarly int
}

// Validate checks a JSONL ledger as written by Writer: exactly one header
// line first (correct schema), every line a known record kind, seeds
// parseable, per-cell counts self-consistent (failures ≤ trials ≤ budget,
// rate = failures/trials, Wilson interval brackets the rate), every trial
// record preceding its cell's summary, and no trial referencing a cell that
// never summarizes. CI's ledger-smoke step runs this over a freshly
// generated ledger so a schema regression fails the build.
func Validate(data []byte) (ValidateReport, error) {
	var rep ValidateReport
	sh, err := parse(data, false)
	if err != nil {
		return rep, err
	}
	if sh.Header.Experiment == "" {
		return rep, fmt.Errorf("line 1: header missing experiment name")
	}
	rep.Experiment = sh.Header.Experiment
	trialsByCell := map[string]int{} // trial records seen, awaiting a cell summary
	closedCells := map[string]bool{}
	for _, b := range sh.Cells {
		for i, t := range b.trials {
			lineNo := b.line + i
			if closedCells[t.Cell] {
				return rep, fmt.Errorf("line %d: trial for cell %q after its summary", lineNo, t.Cell)
			}
			if t.Trial < 0 {
				return rep, fmt.Errorf("line %d: negative trial index %d", lineNo, t.Trial)
			}
			if err := checkSeed(t.Seed); err != nil {
				return rep, fmt.Errorf("line %d: %w", lineNo, err)
			}
			trialsByCell[t.Cell]++
			rep.Trials++
		}
		c := b.summary
		if c == nil {
			continue
		}
		lineNo := b.line + len(b.trials)
		if closedCells[c.Cell] {
			return rep, fmt.Errorf("line %d: duplicate cell summary %q", lineNo, c.Cell)
		}
		if err := checkSeed(c.Seed); err != nil {
			return rep, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if c.Failures < 0 || c.Failures > c.Trials {
			return rep, fmt.Errorf("line %d: cell %q: failures %d outside [0, %d]", lineNo, c.Cell, c.Failures, c.Trials)
		}
		if c.Trials > c.Budget {
			return rep, fmt.Errorf("line %d: cell %q: trials %d exceed budget %d", lineNo, c.Cell, c.Trials, c.Budget)
		}
		if c.Trials > 0 {
			want := float64(c.Failures) / float64(c.Trials)
			if math.Abs(c.Rate-want) > 1e-12 {
				return rep, fmt.Errorf("line %d: cell %q: rate %v != failures/trials %v", lineNo, c.Cell, c.Rate, want)
			}
		}
		// The Wilson bounds are computed in floating point: at zero
		// failures the lower bound lands a few ulps above 0, so the
		// bracket check needs the same kind of tolerance as the rate.
		if !(c.WilsonLo-1e-12 <= c.Rate && c.Rate <= c.WilsonHi+1e-12) {
			return rep, fmt.Errorf("line %d: cell %q: rate %v outside Wilson [%v, %v]",
				lineNo, c.Cell, c.Rate, c.WilsonLo, c.WilsonHi)
		}
		if n := trialsByCell[c.Cell]; n > c.Trials {
			return rep, fmt.Errorf("line %d: cell %q: %d trial records exceed summarized trials %d", lineNo, c.Cell, n, c.Trials)
		}
		delete(trialsByCell, c.Cell)
		closedCells[c.Cell] = true
		if c.StoppedEarly {
			rep.StoppedEarly++
		}
		rep.Cells++
	}
	if len(trialsByCell) > 0 {
		// Sort the dangling cells so the validator's verdict is itself a
		// deterministic artifact: the old code returned whichever cell map
		// iteration surfaced first, so the same broken ledger produced
		// different error text run to run.
		cells := make([]string, 0, len(trialsByCell))
		for cell := range trialsByCell {
			cells = append(cells, cell)
		}
		sort.Strings(cells)
		return rep, fmt.Errorf("trial records for cell(s) %q have no cell summary", cells)
	}
	return rep, nil
}

// checkSeed verifies a SeedString round-trips as a 64-bit hex literal.
func checkSeed(s string) error {
	if len(s) < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X') {
		return fmt.Errorf("seed %q is not a hex literal", s)
	}
	if _, err := strconv.ParseUint(s[2:], 16, 64); err != nil {
		return fmt.Errorf("seed %q: %w", s, err)
	}
	return nil
}
