package mc

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// priorFn is a deterministic trial body that also counts executions.
func priorFn(calls *atomic.Int64) BatchFn {
	return perTrial(func(trial int, seed uint64) Outcome {
		calls.Add(1)
		return Outcome{Fail: seed%3 == 0}
	})
}

// recordOutcomes runs a full cell and returns its trial-ordered outcomes via
// the Sink — the shape a resume checkpoint replays.
func recordOutcomes(trials int) ([]Outcome, Result) {
	outs := make([]Outcome, 0, trials)
	var calls atomic.Int64
	res := Run(trials, 4, 1, 0xc0ffee, Observers{
		Sink: func(trial int, seed uint64, out Outcome) { outs = append(outs, out) },
	}, priorFn(&calls))
	return outs, res
}

// TestPriorSkipsExecution pins the resume hook's core promise: trials
// covered by Prior are never executed, and the Result is identical to the
// run that executed everything.
func TestPriorSkipsExecution(t *testing.T) {
	const trials = 20
	outs, want := recordOutcomes(trials)
	for _, lane := range []int{1, 7, LaneWidth} {
		for _, prior := range []int{0, 1, 7, trials} {
			var calls atomic.Int64
			var sunk []Outcome
			got := Run(trials, 4, lane, 0xc0ffee, Observers{
				Prior: outs[:prior],
				Sink:  func(trial int, seed uint64, out Outcome) { sunk = append(sunk, out) },
			}, priorFn(&calls))
			if got != want {
				t.Errorf("lane=%d prior=%d: Result %+v != full run %+v", lane, prior, got, want)
			}
			if int(calls.Load()) != trials-prior {
				t.Errorf("lane=%d prior=%d: executed %d trials, want %d", lane, prior, calls.Load(), trials-prior)
			}
			if !reflect.DeepEqual(sunk, outs) {
				t.Errorf("lane=%d prior=%d: Sink stream differs from the full run's", lane, prior)
			}
		}
	}
}

// TestPriorLongerThanBudgetIsTruncated pins the edge where the checkpoint
// recorded more trials than this run's budget: the excess is ignored, no
// trial executes, and the Result covers exactly the budget.
func TestPriorLongerThanBudgetIsTruncated(t *testing.T) {
	outs, _ := recordOutcomes(20)
	var calls atomic.Int64
	_, want := recordOutcomes(12)
	got := Run(12, 4, 1, 0xc0ffee, Observers{Prior: outs}, priorFn(&calls))
	if calls.Load() != 0 {
		t.Errorf("executed %d trials with a full prior, want 0", calls.Load())
	}
	if got != want {
		t.Errorf("Result %+v != 12-trial run %+v", got, want)
	}
}

// TestPriorFeedsCIStop pins that prior outcomes reach the Wilson-width stop
// frontier: a resumed run stops at the same trial count as the uninterrupted
// one, whether the stop point falls inside or beyond the prior prefix.
func TestPriorFeedsCIStop(t *testing.T) {
	const budget = 300
	obs := Observers{CIWidth: 0.2}
	var calls atomic.Int64
	want := Run(budget, 4, 1, 0xc0ffee, obs, priorFn(&calls))
	if want.Trials >= budget {
		t.Fatalf("ci-stop never fired (%d trials); widen the test margin", want.Trials)
	}
	outs, _ := recordOutcomes(budget)
	for _, lane := range []int{1, LaneWidth} {
		for _, prior := range []int{want.Trials / 2, want.Trials, budget} {
			o := obs
			o.Prior = outs[:prior]
			var resumedCalls atomic.Int64
			got := Run(budget, 4, lane, 0xc0ffee, o, priorFn(&resumedCalls))
			if got != want {
				t.Errorf("lane=%d prior=%d: Result %+v != uninterrupted %+v", lane, prior, got, want)
			}
			if prior >= want.Trials && resumedCalls.Load() != 0 {
				t.Errorf("lane=%d prior=%d covers the stop point but %d trials executed", lane, prior, resumedCalls.Load())
			}
		}
	}
}

// TestPriorSeedsProgress is the regression test for resumed progress
// restarting at zero: the live counters start from the replayed prefix, so
// every snapshot of a resumed run — the first included — reports at least
// the prior's trials and failures against the full budget.
func TestPriorSeedsProgress(t *testing.T) {
	const budget, prior = 200, 70
	outs, _ := recordOutcomes(budget)
	priorFails := 0
	for _, o := range outs[:prior] {
		if o.Fail {
			priorFails++
		}
	}
	for _, lane := range []int{1, LaneWidth} {
		var snaps []Progress
		var calls atomic.Int64
		Run(budget, 1, lane, 0xc0ffee, Observers{
			Prior:         outs[:prior],
			ProgressEvery: 10,
			Progress:      func(p Progress) { snaps = append(snaps, p) },
		}, priorFn(&calls))
		if len(snaps) < 2 {
			t.Fatalf("lane=%d: %d snapshots, want a live stream plus the final", lane, len(snaps))
		}
		first := snaps[0]
		if first.Completed < prior || first.Failures < priorFails {
			t.Errorf("lane=%d: first snapshot %+v ignores the %d-trial prior (%d failures)",
				lane, first, prior, priorFails)
		}
		if first.Budget != budget {
			t.Errorf("lane=%d: first snapshot budget %d, want %d", lane, first.Budget, budget)
		}
	}
}
