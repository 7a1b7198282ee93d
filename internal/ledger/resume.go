package ledger

// This file is the checkpoint half of the replication log: because every
// ledger record is a pure function of (seed, config, trial order), a
// partial ledger left behind by a crashed or interrupted sweep is a valid
// checkpoint of it. Resume parses such a file — tolerating the torn final
// line a crash mid-write leaves — into completed cells (replayed verbatim,
// zero trials re-executed) and a partially-recorded cell's leading trial
// outcomes (fed to the engine as mc.Observers.Prior). A resumed run's
// ledger therefore converges to the exact bytes of the uninterrupted run:
// skipping work never changes what the work would have produced.

import (
	"fmt"
	"sort"
)

// CompletedCell is one fully-recorded cell of a partial ledger: its trial
// records in trial order plus its summary.
type CompletedCell struct {
	Summary Cell
	Trials  []Trial
}

// Resume is a parsed partial ledger, consumed cell by cell as the resumed
// sweep re-reaches each cell (core.SweepObs.Resume drives it).
type Resume struct {
	header Header
	// complete and partial are keyed by cell name. At most one cell can be
	// partial per crashed process (the writer is sequential), but the map
	// keeps Take symmetric and catches malformed inputs.
	complete map[string]*CompletedCell
	partial  map[string][]Trial
	consumed map[string]bool
	// truncated reports whether a torn final line was dropped.
	truncated bool
}

// NewResume parses a partial run ledger. Requirements beyond Validate's —
// and relaxations of them: trial records must be unsampled and in order
// (indices 0,1,2,... within each cell), since replay is verbatim; a cell
// summary must agree with its trial-record count; a cell's records must be
// contiguous; dangling trial records (the crash cell) are accepted rather
// than rejected; and a final line that does not parse is dropped as
// write-tear, anywhere else (the header included) it is an error.
func NewResume(data []byte) (*Resume, error) {
	sh, err := parse(data, true)
	if err != nil {
		return nil, fmt.Errorf("resume ledger: %w", err)
	}
	r := &Resume{
		header:    sh.Header,
		complete:  map[string]*CompletedCell{},
		partial:   map[string][]Trial{},
		consumed:  map[string]bool{},
		truncated: sh.torn,
	}
	for _, b := range sh.Cells {
		if err := r.add(b); err != nil {
			return nil, fmt.Errorf("resume ledger: %w", err)
		}
	}
	return r, nil
}

// add records one cell block: complete when a summary closes it, partial
// (the crash cell) when none does.
func (r *Resume) add(b CellBlock) error {
	if _, dup := r.complete[b.Name]; dup {
		if len(b.trials) > 0 {
			return fmt.Errorf("line %d: trial for cell %q after its summary", b.line, b.Name)
		}
		return fmt.Errorf("line %d: duplicate cell summary %q", b.line, b.Name)
	}
	if _, dup := r.partial[b.Name]; dup {
		return fmt.Errorf("line %d: cell %q recorded twice", b.line, b.Name)
	}
	for i, t := range b.trials {
		if t.Trial != i {
			return fmt.Errorf("line %d: cell %q trial index %d, want %d — resume needs an unsampled, in-order ledger",
				b.line+i, b.Name, t.Trial, i)
		}
	}
	if b.summary == nil {
		r.partial[b.Name] = b.trials
		return nil
	}
	if n := len(b.trials); n != b.summary.Trials {
		return fmt.Errorf("line %d: cell %q has %d trial record(s) but summarizes %d — resume needs an unsampled ledger",
			b.line+n, b.Name, n, b.summary.Trials)
	}
	r.complete[b.Name] = &CompletedCell{Summary: *b.summary, Trials: b.trials}
	return nil
}

// Header returns the partial ledger's provenance header, so callers can
// refuse to resume under a different experiment, config, or shard.
func (r *Resume) Header() Header { return r.header }

// Truncated reports whether a torn final line was dropped during parsing.
func (r *Resume) Truncated() bool { return r.truncated }

// Counts returns how many completed cells and how many partially-recorded
// cells the checkpoint holds.
func (r *Resume) Counts() (complete, partial int) {
	return len(r.complete), len(r.partial)
}

// Take claims the recorded state of one cell as the resumed sweep reaches
// it: a fully-recorded cell (replay verbatim, skip execution), the leading
// trials of a partially-recorded cell (replay as prior outcomes), or
// neither (run normally). Claiming the same cell twice is an error — the
// sweep and the checkpoint disagree about what a cell is, and splicing
// records into two different cells would corrupt both.
func (r *Resume) Take(name string) (*CompletedCell, []Trial, error) {
	if r.consumed[name] {
		return nil, nil, fmt.Errorf("resume ledger: cell %q claimed twice — overlapping sweep cells cannot replay", name)
	}
	r.consumed[name] = true
	if cc, ok := r.complete[name]; ok {
		return cc, nil, nil
	}
	return nil, r.partial[name], nil
}

// Unconsumed returns the sorted recorded cells no sweep cell ever claimed —
// non-empty after a run means the checkpoint came from a different
// invocation (other experiments, other parameters) and its leftover records
// were not carried into the new ledger.
func (r *Resume) Unconsumed() []string {
	var left []string
	//quest:allow(detrange) left is sorted below before anything reads it
	for name := range r.complete {
		if !r.consumed[name] {
			left = append(left, name)
		}
	}
	//quest:allow(detrange) left is sorted below before anything reads it
	for name := range r.partial {
		if !r.consumed[name] {
			left = append(left, name)
		}
	}
	sort.Strings(left)
	return left
}
