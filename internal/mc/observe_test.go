package mc

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"quest/internal/heatmap"
	"quest/internal/metrics"
)

// rateFn fails each trial with probability rate, drawn from the trial's own
// seed: a pure function of the seed, so every lane width and worker count
// must agree on it exactly.
func rateFn(rate float64) BatchFn {
	return perTrial(func(trial int, seed uint64) Outcome {
		rng := rand.New(rand.NewSource(int64(seed)))
		return Outcome{Fail: rng.Float64() < rate}
	})
}

// TestWilsonEdgeCases pins the boundary behavior the CI-convergence stop
// rule depends on: degenerate counts stay inside [0,1], zero-failure and
// all-failure intervals stay strictly informative, and the interval narrows
// monotonically as trials grow at a fixed rate.
func TestWilsonEdgeCases(t *testing.T) {
	// failures = 0: lo must be exactly 0, hi strictly inside (0, 1).
	lo, hi := Wilson(0, 50, 1.96)
	if lo != 0 {
		t.Errorf("Wilson(0,50) lo = %v, want 0", lo)
	}
	if hi <= 0 || hi >= 1 {
		t.Errorf("Wilson(0,50) hi = %v, want in (0,1)", hi)
	}
	// failures = trials: hi must be exactly 1, lo strictly inside (0, 1).
	lo, hi = Wilson(50, 50, 1.96)
	if hi != 1 {
		t.Errorf("Wilson(50,50) hi = %v, want 1", hi)
	}
	if lo <= 0 || lo >= 1 {
		t.Errorf("Wilson(50,50) lo = %v, want in (0,1)", lo)
	}
	// trials = 1: both outcomes give a very wide but valid interval.
	for k := 0; k <= 1; k++ {
		lo, hi = Wilson(k, 1, 1.96)
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("Wilson(%d,1) = [%v, %v] not a valid interval", k, lo, hi)
		}
		if hi-lo < 0.5 {
			t.Errorf("Wilson(%d,1) width %v implausibly narrow for one trial", k, hi-lo)
		}
	}
	// Monotonic narrowing: at a fixed failure rate, more trials must never
	// widen the interval — otherwise the CI-stop rule could stop on a
	// prefix whose successor is wider than the target.
	for _, rate := range []float64{0, 0.1, 0.5, 1} {
		prev := 2.0
		for _, n := range []int{10, 40, 160, 640, 2560} {
			k := int(rate * float64(n))
			lo, hi := Wilson(k, n, 1.96)
			if w := hi - lo; w > prev {
				t.Errorf("rate %v: width widened from %v to %v at n=%d", rate, prev, w, n)
			} else {
				prev = w
			}
		}
	}
}

// TestRunAllocs pins the path production calls at lane 1 (the machine
// memory experiment) with metrics off at its committed allocation count.
// Observers must cost the unobserved path nothing: every observer local is
// a single-assigned nil pointer the worker closure captures by value, never
// a heap cell. The budget of 8 is mirrored by the internal/mc.Run root's
// bench_allocs in questvet-budgets.json. A single-worker run makes 6
// allocations (outcomes, the worker-state slice, nextLane, wg, the worker
// closure and one runtime cell); the budget leaves room for two more.
func TestRunAllocs(t *testing.T) {
	fn := perTrial(func(trial int, seed uint64) Outcome {
		return Outcome{Fail: seed&1 == 0}
	})
	allocs := testing.AllocsPerRun(100, func() {
		Run(100, 1, 1, Seed(5), Observers{}, fn)
	})
	if allocs > 8 {
		t.Errorf("Run metrics-off allocs/call = %v, budget 8", allocs)
	}
	if allocs != 6 {
		t.Logf("note: Run metrics-off allocs/call = %v, expected 6", allocs)
	}
}

// TestRunObservedZeroValueMatchesRun pins that a zero Observers with nil
// registry and tracer hands fn no live hook at any lane width, and that
// the Result does not depend on the lane width.
func TestRunObservedZeroValueMatchesRun(t *testing.T) {
	cell := Seed(42, F64(1e-3), 3)
	base := runPlain(300, 4, 1, cell, trialRate)
	for _, lane := range []int{1, 7, LaneWidth} {
		got := Run(300, 4, lane, cell, Observers{}, func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			if ctx.Shard != nil || ctx.Trace != nil || ctx.Heat != nil || ctx.BW != nil {
				t.Error("zero Observers handed out live observation hooks")
			}
			perTrial(trialRate)(start, seeds, ctx, out)
		})
		if got != base {
			t.Errorf("lane=%d: Result %+v != lane-1 %+v", lane, got, base)
		}
	}
}

// TestCIStopDeterministicAcrossWorkers pins the acceptance criterion: the
// early-stop decision (effective trials, failures, interval) is byte-for-
// byte identical for workers=1 and workers=8, because it is a pure function
// of trial-ordered outcomes.
func TestCIStopDeterministicAcrossWorkers(t *testing.T) {
	cell := Seed(17, F64(2e-3), 5)
	runOnce := func(workers int) Result {
		return Run(5000, workers, 1, cell,
			Observers{CIWidth: 0.05}, rateFn(0.3))
	}
	base := runOnce(1)
	for _, w := range []int{2, 4, 8} {
		if got := runOnce(w); got != base {
			t.Errorf("workers=%d ci-stop result %+v != workers=1 %+v", w, got, base)
		}
	}
	if base.Trials >= 5000 {
		t.Fatalf("cell did not stop early (trials=%d)", base.Trials)
	}
	if w := base.WilsonHi - base.WilsonLo; w > 0.05 {
		t.Errorf("stopped at width %v > requested 0.05", w)
	}
}

// TestCIStopSavesTrials pins the wall-clock claim: an easy cell (low
// failure rate, tight interval quickly) converges in a fraction of its
// budget, and the estimate agrees with the fixed-budget run within the
// requested width.
func TestCIStopSavesTrials(t *testing.T) {
	cell := Seed(23, F64(1e-4), 3)
	budget := 20000
	fixed := Run(budget, 4, 1, cell, Observers{}, rateFn(0.02))
	stopped := Run(budget, 4, 1, cell, Observers{CIWidth: 0.04}, rateFn(0.02))
	if stopped.Trials >= budget/2 {
		t.Errorf("easy cell used %d of %d trials, expected a large saving", stopped.Trials, budget)
	}
	if diff := stopped.Rate - fixed.Rate; diff > 0.04 || diff < -0.04 {
		t.Errorf("stopped estimate %v vs fixed %v differ by more than the requested width", stopped.Rate, fixed.Rate)
	}
	// The stop point is the FIRST prefix length satisfying the rule: the
	// prefix one trial shorter must still be wider than the target.
	n := stopped.Trials
	fails := 0
	for trial := 0; trial < n-1; trial++ {
		rng := rand.New(rand.NewSource(int64(TrialSeed(cell, trial))))
		if rng.Float64() < 0.02 {
			fails++
		}
		if trial+1 >= defaultMinStopTrials {
			lo, hi := Wilson(fails, trial+1, 1.96)
			if hi-lo <= 0.04 {
				t.Fatalf("prefix %d already satisfied the stop rule, but run stopped at %d", trial+1, n)
			}
		}
	}
}

// TestCIStopMinTrialsFloor pins that the stop rule never fires before
// MinTrials even when the interval is trivially narrow.
func TestCIStopMinTrialsFloor(t *testing.T) {
	res := Run(1000, 8, 1, Seed(3),
		Observers{CIWidth: 0.9, MinTrials: 64}, rateFn(0))
	if res.Trials < 64 {
		t.Errorf("stopped at %d trials, before MinTrials=64", res.Trials)
	}
}

// TestObservedSinkTrialOrder pins the ledger feed contract: the sink sees
// exactly the effective trials, in trial order, with the engine's own
// derived seeds, on the caller's goroutine after the pool drains.
func TestObservedSinkTrialOrder(t *testing.T) {
	cell := Seed(29)
	var got []string
	res := Run(100, 8, 1, cell, Observers{
		Sink: func(trial int, seed uint64, out Outcome) {
			got = append(got, fmt.Sprintf("%d:%x:%v", trial, seed, out.Fail))
		},
	}, rateFn(0.25))
	if len(got) != res.Trials {
		t.Fatalf("sink saw %d trials, Result has %d", len(got), res.Trials)
	}
	for trial := range got {
		rng := rand.New(rand.NewSource(int64(TrialSeed(cell, trial))))
		want := fmt.Sprintf("%d:%x:%v", trial, TrialSeed(cell, trial), rng.Float64() < 0.25)
		if got[trial] != want {
			t.Fatalf("sink record %d = %q, want %q", trial, got[trial], want)
		}
	}
}

// TestObservedHeatDeterministicAcrossWorkers pins that the merged heatmap
// is identical for any worker count — including under CI early stop, where
// different worker counts execute different overrun trials (the per-trial
// shards of discarded trials must not leak into the merge).
func TestObservedHeatDeterministicAcrossWorkers(t *testing.T) {
	cell := Seed(31, F64(5e-3), 3)
	runOnce := func(workers int, ciWidth float64) ([][]int64, []int64, Result) {
		heat := heatmap.New(5, 5)
		res := Run(3000, workers, 1, cell,
			Observers{Heat: heat, CIWidth: ciWidth},
			func(trial int, seeds []uint64, ctx BatchCtx, out []Outcome) {
				if len(ctx.Heat) != 1 {
					t.Error("expected per-trial heat shard")
					return
				}
				out[0] = heatTrial(seeds[0], ctx.Heat[0])
			})
		return heat.Defects(), heat.ChainLengths(), res
	}
	for _, ciWidth := range []float64{0, 0.05} {
		baseD, baseH, baseRes := runOnce(1, ciWidth)
		for _, w := range []int{2, 8} {
			d, h, res := runOnce(w, ciWidth)
			if res != baseRes {
				t.Errorf("ciWidth=%v workers=%d: Result %+v != %+v", ciWidth, w, res, baseRes)
			}
			if fmt.Sprint(d) != fmt.Sprint(baseD) || fmt.Sprint(h) != fmt.Sprint(baseH) {
				t.Errorf("ciWidth=%v workers=%d: merged heatmap differs from workers=1", ciWidth, w)
			}
		}
		var total int64
		for _, row := range baseD {
			for _, v := range row {
				total += v
			}
		}
		if total != int64(baseRes.Trials) {
			t.Errorf("ciWidth=%v: %d defects merged, want one per effective trial (%d)", ciWidth, total, baseRes.Trials)
		}
	}
}

// TestObservedProgress pins the progress contract: throttled monotonic
// snapshots, a final Done snapshot matching the Result, and no calls at all
// when the sink is nil.
func TestObservedProgress(t *testing.T) {
	var snaps []Progress
	res := Run(200, 4, 1, Seed(37), Observers{
		Progress:      func(p Progress) { snaps = append(snaps, p) },
		ProgressEvery: 50,
	}, rateFn(0.2))
	if len(snaps) < 2 {
		t.Fatalf("got %d progress snapshots, want throttled stream + final", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Done {
		t.Error("final snapshot not marked Done")
	}
	if last.Completed != res.Trials || last.Failures != res.Failures ||
		last.WilsonLo != res.WilsonLo || last.WilsonHi != res.WilsonHi {
		t.Errorf("final snapshot %+v disagrees with Result %+v", last, res)
	}
	prev := 0
	for _, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Error("mid-run snapshot marked Done")
		}
		if p.Completed <= prev {
			t.Errorf("progress not monotonic: %d after %d", p.Completed, prev)
		}
		prev = p.Completed
		if p.Completed%50 != 0 {
			t.Errorf("snapshot at %d trials violates ProgressEvery=50", p.Completed)
		}
		if !(p.WilsonLo <= float64(p.Failures)/float64(p.Completed) &&
			float64(p.Failures)/float64(p.Completed) <= p.WilsonHi) {
			t.Errorf("snapshot %+v: rate outside its interval", p)
		}
	}
}

// TestObservedMetricsShardsStillMerge pins that the observed path keeps the
// metrics contract (every executed trial counted exactly once) when
// no early stop is in play.
func TestObservedMetricsShardsStillMerge(t *testing.T) {
	reg := metrics.New()
	var calls atomic.Int64
	res := Run(120, 4, 1, Seed(41), Observers{Metrics: reg},
		func(trial int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			if ctx.Shard == nil {
				t.Error("expected metrics shard")
			}
			calls.Add(1)
			ctx.Shard.Counter("test.obs").Inc()
			out[0] = Outcome{Fail: trial%4 == 0}
		})
	if res.Failures != 30 {
		t.Errorf("failures = %d, want 30", res.Failures)
	}
	if got := reg.Counter("mc.trials").Value(); got != 120 {
		t.Errorf("mc.trials = %d, want 120", got)
	}
	if got := reg.Counter("test.obs").Value(); got != uint64(calls.Load()) {
		t.Errorf("merged test.obs = %d, executed %d", got, calls.Load())
	}
}
