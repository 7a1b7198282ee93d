package core

import (
	"errors"
	"fmt"

	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/probe"
)

// Shard deterministically partitions a sweep's cells across Count
// cooperating processes: the k-th cell the sweep reaches (counting in sweep
// order, across every entry point sharing this Shard) belongs to shard
// Index iff k ≡ Index (mod Count). The claim cursor advances on every cell
// — owned or not — so N processes running the same binary with the same
// arguments agree on the assignment with no coordination, and
// tools/ledgermerge can splice their ledgers back together round-robin.
type Shard struct {
	index, count int
	next         int
}

// NewShard builds the claim cursor for shard index of count. count < 2
// returns nil — the unsharded cursor that claims every cell — so callers
// can pass the parsed -shard flag through unconditionally.
func NewShard(index, count int) (*Shard, error) {
	if count < 2 {
		return nil, nil
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("core: shard index %d outside [0, %d)", index, count)
	}
	return &Shard{index: index, count: count}, nil
}

// claim advances the cell cursor and reports whether this process owns the
// cell. A nil Shard owns everything.
func (s *Shard) claim() bool {
	if s == nil {
		return true
	}
	k := s.next
	s.next++
	return k%s.count == s.index
}

// SweepObs bundles the experiment-observability hooks a sweep wires
// through the Monte-Carlo engine: metrics, tracing, a run ledger, spatial
// heat collection, bandwidth profiling, adaptive CI early stop, a live
// progress sink, sharding and resume. The zero value observes nothing and
// runs every cell.
//
// Everything written through these hooks is worker-count independent: the
// ledger and the CI-stop decision are pure functions of trial-ordered
// outcomes, heat and bandwidth shards are per-trial and merged in trial
// order, and metrics and trace shards merge by addition and canonical sort
// (pinned by TestThresholdObservedLedgerDeterminism and friends). Only the
// Progress stream and the wall-clock gauges reflect live completion order —
// they are display, not data.
type SweepObs struct {
	// Probes are the sweep's observers. Metrics aggregates the per-worker
	// shards of trial instrumentation; Tracer merges the per-worker trace
	// shards of every trial; Heat accumulates defect-birth and
	// matched-chain statistics; BW accumulates cycle-windowed
	// instruction-bandwidth samples from every trial machine's master/MCE
	// buses. Heat and BW shards are per-trial and merged in trial order, so
	// the heatmap and quest-bw/1 bytes are worker-count independent like the
	// ledger. See probe.Probes for what nil means.
	probe.Probes
	// Ledger receives one sampled record per trial and one summary per
	// sweep cell. Nil disables the ledger.
	Ledger *ledger.Writer
	// CIWidth > 0 stops each cell at the first trial-ordered prefix whose
	// 95% Wilson interval is narrower than this (see mc.Observers.CIWidth);
	// MinTrials floors the rule (0 = the engine default).
	CIWidth   float64
	MinTrials int
	// Progress receives throttled per-cell progress snapshots. Nil
	// disables the stream.
	Progress func(cell string, p mc.Progress)
	// Shard restricts the sweep to the cells this process owns (nil = all
	// cells); see Shard and cmd/questbench -shard i/N. Skipped cells emit
	// nothing — no ledger records, no rows — leaving each shard's ledger a
	// complete, self-describing file tools/ledgermerge can recombine into
	// the single-process bytes.
	Shard *Shard
	// Resume replays a partial ledger checkpoint from a crashed or
	// interrupted run: cells it records completely are emitted verbatim
	// without executing a trial, and a partially-recorded cell's leading
	// trials feed the engine as prior outcomes (mc.Observers.Prior). Nil
	// runs everything. The resumed ledger converges to the uninterrupted
	// run's exact bytes; recorded seeds are checked against the sweep's
	// own derivations so a checkpoint from a different config is refused,
	// not spliced in.
	Resume *ledger.Resume
}

// cellPlan is beginCell's verdict for one sweep cell.
type cellPlan struct {
	// skip: another shard owns the cell; emit nothing.
	skip bool
	// replayed: the resume checkpoint recorded the whole cell; its records
	// are already re-emitted and this is its Result — do not execute.
	replayed *mc.Result
	// prior: leading trial outcomes replayed from a partial record, to run
	// through mc.Observers.Prior. Empty means run the cell from scratch.
	prior []mc.Outcome
}

// beginCell resolves sharding and resume for the named cell. runCell calls
// it exactly once per cell, in sweep order — the shard cursor and the
// resume bookkeeping both count on it.
func (s SweepObs) beginCell(name string, cellSeed uint64, budget int) (cellPlan, error) {
	if !s.Shard.claim() {
		return cellPlan{skip: true}, nil
	}
	if s.Resume == nil {
		return cellPlan{}, nil
	}
	cc, partial, err := s.Resume.Take(name)
	if err != nil {
		return cellPlan{}, err
	}
	if cc != nil {
		if got, want := cc.Summary.Seed, ledger.SeedString(cellSeed); got != want {
			return cellPlan{}, fmt.Errorf("core: resume cell %q was recorded with seed %s but this sweep derives %s — refusing to splice a different experiment", name, got, want)
		}
		if cc.Summary.Budget != budget {
			return cellPlan{}, fmt.Errorf("core: resume cell %q was recorded with a %d-trial budget but this sweep runs %d — rerun with the original flags", name, cc.Summary.Budget, budget)
		}
		for i, tr := range cc.Trials {
			if got, want := tr.Seed, ledger.SeedString(mc.TrialSeed(cellSeed, i)); got != want {
				return cellPlan{}, fmt.Errorf("core: resume cell %q trial %d seed %s, want %s — checkpoint does not match this configuration", name, i, got, want)
			}
		}
		if s.Ledger != nil {
			for _, tr := range cc.Trials {
				if err := s.Ledger.WriteTrial(tr); err != nil {
					return cellPlan{}, err
				}
			}
			if err := s.Ledger.WriteCell(cc.Summary); err != nil {
				return cellPlan{}, err
			}
		}
		res := mc.Result{
			Trials: cc.Summary.Trials, Failures: cc.Summary.Failures,
			Rate: cc.Summary.Rate, WilsonLo: cc.Summary.WilsonLo, WilsonHi: cc.Summary.WilsonHi,
		}
		if cc.Summary.Err != "" {
			res.Err = errors.New(cc.Summary.Err)
		}
		// A replayed cell never reaches the engine, so emit its terminal
		// progress snapshot here — a live display (or events stream) should
		// show resumed cells as done, not absent. Display-only, like every
		// Progress emission.
		if s.Progress != nil {
			s.Progress(name, mc.Progress{
				Completed: res.Trials, Failures: res.Failures, Budget: budget,
				WilsonLo: res.WilsonLo, WilsonHi: res.WilsonHi, Done: true,
			})
		}
		return cellPlan{replayed: &res}, nil
	}
	if len(partial) == 0 {
		return cellPlan{}, nil
	}
	if len(partial) > budget {
		return cellPlan{}, fmt.Errorf("core: resume cell %q records %d trials, beyond this sweep's %d-trial budget — rerun with the original flags", name, len(partial), budget)
	}
	prior := make([]mc.Outcome, len(partial))
	for i, tr := range partial {
		if got, want := tr.Seed, ledger.SeedString(mc.TrialSeed(cellSeed, i)); got != want {
			return cellPlan{}, fmt.Errorf("core: resume cell %q trial %d seed %s, want %s — checkpoint does not match this configuration", name, i, got, want)
		}
		prior[i] = mc.Outcome{Fail: tr.Fail}
		if tr.Err != "" {
			prior[i].Err = errors.New(tr.Err)
		}
	}
	return cellPlan{prior: prior}, nil
}

// observers assembles the engine-level hooks for one named sweep cell.
func (s SweepObs) observers(cell string, heat *heatmap.Collector) mc.Observers {
	obs := mc.Observers{Metrics: s.Metrics, Tracer: s.Tracer, CIWidth: s.CIWidth, MinTrials: s.MinTrials,
		Heat: heat, BW: s.BW}
	if s.Progress != nil {
		progress := s.Progress
		obs.Progress = func(p mc.Progress) { progress(cell, p) }
	}
	if s.Ledger != nil {
		lw := s.Ledger
		obs.Sink = func(trial int, seed uint64, out mc.Outcome) {
			// The Sink contract is void (the engine cannot abort a drained
			// trial on an I/O error); the Writer latches the first error and
			// closeCell surfaces it when the cell finishes.
			//quest:allow(errsink) Sink is void by contract; Writer.Err latches the failure and closeCell returns it
			lw.WriteTrial(ledger.Trial{
				Cell: cell, Trial: trial, Seed: ledger.SeedString(seed),
				Fail: out.Fail, Err: errString(out.Err),
			})
		}
	}
	return obs
}

// closeCell writes the cell's ledger summary after its pool drained. It
// also surfaces any trial-write error the void Sink hook latched into the
// Writer, so a failed write mid-cell fails the sweep rather than
// truncating the ledger silently.
func (s SweepObs) closeCell(cell string, params map[string]float64, cellSeed uint64, budget int, res mc.Result) error {
	if s.Ledger == nil {
		return nil
	}
	if err := s.Ledger.WriteCell(ledger.Cell{
		Cell:   cell,
		Params: params,
		Seed:   ledger.SeedString(cellSeed),
		Budget: budget, Trials: res.Trials, Failures: res.Failures,
		Rate: res.Rate, WilsonLo: res.WilsonLo, WilsonHi: res.WilsonHi,
		CIStop:       s.CIWidth,
		StoppedEarly: res.Trials < budget,
		Err:          errString(res.Err),
	}); err != nil {
		return err
	}
	return s.Ledger.Err()
}

// collector resolves the heat collector for a lattice shape, nil when heat
// collection is off.
func (s SweepObs) collector(rows, cols int) *heatmap.Collector {
	if s.Heat == nil {
		return nil
	}
	return s.Heat.Collector(heatmap.GridName(rows, cols), rows, cols)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// cellEngine is how one sweep cell's trials run: the engine lane width, the
// shape of the lattice the cell's heat collector tracks, and the trial
// function.
type cellEngine struct {
	lane       int
	rows, cols int
	fn         mc.BatchFn
}

// runCell is the one cell driver every sweep shares: sharding and resume
// (beginCell), the heat collector for the cell's lattice, the engine
// observers with any replayed prefix as mc.Observers.Prior, the engine
// run, and the ledger summary (closeCell). engine is called only for a cell
// that executes, so skipped and fully replayed cells compile nothing.
// ran=false means another shard owns the cell and nothing was emitted; err
// reports a resume/shard mismatch or a ledger write failure, while
// trial-level failures stay inside the Result.
func (s SweepObs) runCell(name string, cellSeed uint64, params map[string]float64,
	trials, workers int, engine func() cellEngine) (res mc.Result, ran bool, err error) {
	plan, err := s.beginCell(name, cellSeed, trials)
	if err != nil {
		return mc.Result{}, true, err
	}
	if plan.skip {
		return mc.Result{}, false, nil
	}
	if plan.replayed != nil {
		return *plan.replayed, true, nil
	}
	e := engine()
	obs := s.observers(name, s.collector(e.rows, e.cols))
	obs.Prior = plan.prior
	res = mc.Run(trials, workers, e.lane, cellSeed, obs, e.fn)
	return res, true, s.closeCell(name, params, cellSeed, trials, res)
}
