package mc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"quest/internal/bandwidth"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// trialRate is a deterministic pseudo-experiment: fail iff the trial's own
// seeded RNG says so. Any dependence on scheduling would break the
// worker-count invariance asserted below.
func trialRate(trial int, seed uint64) Outcome {
	rng := rand.New(rand.NewSource(int64(seed)))
	return Outcome{Fail: rng.Float64() < 0.3}
}

// perTrial adapts a one-trial body to a BatchFn of any lane width.
func perTrial(fn func(trial int, seed uint64) Outcome) BatchFn {
	return func(start int, seeds []uint64, _ BatchCtx, out []Outcome) {
		for i, seed := range seeds {
			out[i] = fn(start+i, seed)
		}
	}
}

// runPlain is Run with every observer off.
func runPlain(trials, workers, lane int, cell uint64, fn func(trial int, seed uint64) Outcome) Result {
	return Run(trials, workers, lane, cell, Observers{}, perTrial(fn))
}

func TestRunWorkerCountInvariant(t *testing.T) {
	cell := Seed(42, F64(1e-3), 3)
	base := runPlain(500, 1, 1, cell, trialRate)
	for _, w := range []int{2, 4, 8, 0} {
		for _, lane := range []int{1, 5, LaneWidth} {
			got := runPlain(500, w, lane, cell, trialRate)
			if got != base {
				t.Errorf("workers=%d lane=%d result %+v != workers=1 result %+v", w, lane, got, base)
			}
		}
	}
	if base.Failures == 0 || base.Failures == 500 {
		t.Fatalf("degenerate failure count %d", base.Failures)
	}
	if base.Rate != float64(base.Failures)/500 {
		t.Errorf("rate %v inconsistent with %d/500", base.Rate, base.Failures)
	}
}

func TestSeedsUncorrelatedAcrossCellsAndTrials(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range []float64{1e-3, 5e-4, 1e-4} {
		for _, d := range []int{3, 5, 7} {
			cell := Seed(1, F64(p), uint64(d))
			for trial := 0; trial < 50; trial++ {
				s := TrialSeed(cell, trial)
				id := fmt.Sprintf("p=%v d=%d t=%d", p, d, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %#x", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
	// The historical bug: trial seeds identical for every (p, d) cell.
	a := TrialSeed(Seed(1, F64(1e-3), 3), 7)
	b := TrialSeed(Seed(1, F64(5e-4), 3), 7)
	if a == b {
		t.Error("same trial in different cells drew the same seed")
	}
}

func TestDeriveLanesDiffer(t *testing.T) {
	s := TrialSeed(Seed(9), 0)
	if Derive(s, 0) == Derive(s, 1) {
		t.Error("derived lanes collide")
	}
	if Derive(s, 0) == s {
		t.Error("lane 0 equals parent seed")
	}
}

func TestWilson(t *testing.T) {
	cases := []struct {
		k, n   int
		lo, hi float64
	}{
		{0, 100, 0, 0.0370},
		{5, 100, 0.0215, 0.1118},
		{100, 100, 0.9630, 1},
		{50, 100, 0.4038, 0.5962},
	}
	for _, c := range cases {
		lo, hi := Wilson(c.k, c.n, 1.96)
		if math.Abs(lo-c.lo) > 5e-4 || math.Abs(hi-c.hi) > 5e-4 {
			t.Errorf("Wilson(%d,%d) = [%.4f, %.4f], want [%.4f, %.4f]", c.k, c.n, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := Wilson(1, 0, 1.96); lo != 0 || hi != 0 {
		t.Errorf("Wilson with n=0 = [%v, %v]", lo, hi)
	}
}

func TestRunEmptyAndError(t *testing.T) {
	if res := runPlain(0, 4, 1, 1, trialRate); res != (Result{}) {
		t.Errorf("empty run = %+v", res)
	}
	errA, errB := errors.New("a"), errors.New("b")
	res := runPlain(10, 4, 3, 1, func(trial int, seed uint64) Outcome {
		switch trial {
		case 7:
			return Outcome{Err: errB}
		case 3:
			return Outcome{Err: errA}
		}
		return Outcome{}
	})
	if res.Err != errA {
		t.Errorf("Err = %v, want first error in trial order (a)", res.Err)
	}
}

// TestRunSharedCounterUnderRace drives the pool with a shared
// bandwidth.Counter — the concurrent use the Counter's atomics were built
// for — so `go test -race` exercises the engine + counter combination.
func TestRunSharedCounterUnderRace(t *testing.T) {
	var ctr bandwidth.Counter
	workers := runtime.GOMAXPROCS(0) * 4
	res := runPlain(400, workers, 1, Seed(7), func(trial int, seed uint64) Outcome {
		ctr.Add(3, uint64(trial))
		return Outcome{Fail: trial%5 == 0}
	})
	if res.Failures != 80 {
		t.Errorf("failures = %d, want 80", res.Failures)
	}
	if got := ctr.Instructions(); got != 1200 {
		t.Errorf("instructions = %d, want 1200", got)
	}
	if got := ctr.Bytes(); got != 400*399/2 {
		t.Errorf("bytes = %d, want %d", got, 400*399/2)
	}
}

func TestWilsonAttachedToResult(t *testing.T) {
	res := runPlain(200, 4, 1, Seed(3), trialRate)
	lo, hi := Wilson(res.Failures, res.Trials, 1.96)
	if res.WilsonLo != lo || res.WilsonHi != hi {
		t.Errorf("result CI [%v, %v] != Wilson [%v, %v]", res.WilsonLo, res.WilsonHi, lo, hi)
	}
	if !(res.WilsonLo <= res.Rate && res.Rate <= res.WilsonHi) {
		t.Errorf("rate %v outside its own CI [%v, %v]", res.Rate, res.WilsonLo, res.WilsonHi)
	}
}

// TestRunWithShardMergeInvariant pins the per-worker shard contract: the
// merged counters and histograms must reflect every trial exactly once, and
// both the simulation Result and the merged totals must be identical for any
// worker count (shards partition the trials; counters and fixed-bucket
// histograms merge by addition, which commutes).
func TestRunWithShardMergeInvariant(t *testing.T) {
	run := func(workers int) (Result, uint64, uint64, uint64) {
		reg := metrics.New()
		res := Run(300, workers, 1, Seed(11), Observers{Metrics: reg},
			func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
				if ctx.Shard == nil {
					t.Fatal("nil shard despite non-nil registry")
				}
				ctx.Shard.Counter("test.work").Add(uint64(start))
				out[0] = Outcome{Fail: start%3 == 0}
			})
		return res,
			reg.Counter("mc.trials").Value(),
			reg.Counter("mc.failures").Value(),
			reg.Counter("test.work").Value()
	}
	baseRes, baseTrials, baseFails, baseWork := run(1)
	if baseTrials != 300 {
		t.Errorf("merged mc.trials = %d, want 300", baseTrials)
	}
	if baseFails != 100 {
		t.Errorf("merged mc.failures = %d, want 100", baseFails)
	}
	if want := uint64(300 * 299 / 2); baseWork != want {
		t.Errorf("merged test.work = %d, want %d", baseWork, want)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		res, trials, fails, work := run(workers)
		if res != baseRes {
			t.Errorf("workers=%d: Result %+v != single-worker %+v", workers, res, baseRes)
		}
		if trials != baseTrials || fails != baseFails || work != baseWork {
			t.Errorf("workers=%d: merged totals (%d,%d,%d) != (%d,%d,%d)",
				workers, trials, fails, work, baseTrials, baseFails, baseWork)
		}
	}
}

// TestRunWithHistogramMerge checks that per-worker trial histograms merge
// into one histogram counting every trial.
func TestRunWithHistogramMerge(t *testing.T) {
	reg := metrics.New()
	Run(64, 4, 1, Seed(13), Observers{Metrics: reg}, perTrial(func(int, uint64) Outcome { return Outcome{} }))
	h := reg.Histogram("mc.trial.ns", metrics.LatencyBounds())
	if got := h.Count(); got != 64 {
		t.Errorf("merged mc.trial.ns count = %d, want 64", got)
	}
	if reg.Gauge("mc.workers").Value() != 4 {
		t.Errorf("mc.workers gauge = %v, want 4", reg.Gauge("mc.workers").Value())
	}
	u := reg.Gauge("mc.worker_utilization").Value()
	if u < 0 || u > 1 {
		t.Errorf("worker utilization %v outside [0,1]", u)
	}
}

// TestRunWithNilRegistry pins that a nil target registry disables sharding:
// fn sees a nil shard and the Result still matches the instrumented run.
func TestRunWithNilRegistry(t *testing.T) {
	res := Run(50, 4, 1, Seed(11), Observers{},
		func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			if ctx.Shard != nil {
				t.Error("expected nil shard with nil registry")
			}
			out[0] = Outcome{Fail: start%3 == 0}
		})
	if res.Failures != 17 {
		t.Errorf("failures = %d, want 17", res.Failures)
	}
}

// TestRunTracedDeterminism pins the tracing determinism contract: the merged
// trace of a run is the same event multiset regardless of worker count, and
// the canonical-sorting exporter therefore produces byte-identical JSON for
// workers=1 and workers=8. Runs under -race via make race, which also pins
// shard isolation (each worker records only into its private tracer).
func TestRunTracedDeterminism(t *testing.T) {
	runOnce := func(workers int) []byte {
		tr := tracing.New(1 << 12)
		res := Run(40, workers, 1, Seed(7), Observers{Tracer: tr},
			func(trial int, seeds []uint64, ctx BatchCtx, out []Outcome) {
				trace := ctx.Trace
				if trace == nil {
					t.Error("expected per-worker trace shard")
					return
				}
				// Synthetic per-trial events: cycle timebase derived from the
				// trial index only, never from scheduling.
				trace.SpanArg("mce", trial%4, "busy", int64(trial), 1, "uops", int64(seeds[0]%97))
				trace.Instant("master", 0, "dispatch", int64(trial))
				out[0] = Outcome{Fail: trial%5 == 0}
			})
		if res.Failures != 8 {
			t.Fatalf("workers=%d: failures = %d, want 8", workers, res.Failures)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, eight := runOnce(1), runOnce(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("merged trace depends on worker count:\nworkers=1: %d bytes\nworkers=8: %d bytes", len(one), len(eight))
	}
	rep, err := tracing.Validate(one)
	if err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if rep.Events != 80 {
		t.Errorf("events = %d, want 80", rep.Events)
	}
}

// TestRunTracedNilTracer pins that a nil tracer disables trace sharding
// without disturbing metrics sharding or the Result.
func TestRunTracedNilTracer(t *testing.T) {
	reg := metrics.New()
	res := Run(30, 4, 1, Seed(9), Observers{Metrics: reg},
		func(trial int, seeds []uint64, ctx BatchCtx, out []Outcome) {
			if ctx.Trace != nil {
				t.Error("expected nil trace shard with nil tracer")
			}
			if ctx.Shard == nil {
				t.Error("expected metrics shard")
			}
			ctx.Trace.Span("mce", 0, "busy", int64(trial), 1) // must be a safe no-op
			out[0] = Outcome{Fail: trial%2 == 0}
		})
	if res.Failures != 15 {
		t.Errorf("failures = %d, want 15", res.Failures)
	}
	if got := reg.Counter("mc.trials").Value(); got != 30 {
		t.Errorf("mc.trials = %d, want 30", got)
	}
}
