package mc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/metrics"
)

// heatTrial is an observed pseudo-trial: it records one defect and one
// matched pair into its private heat shard and fails with probability 0.3,
// all drawn from the trial's own seed.
func heatTrial(seed uint64, heat *heatmap.Collector) Outcome {
	rng := rand.New(rand.NewSource(int64(seed)))
	heat.Defect(rng.Intn(5), rng.Intn(5))
	heat.MatchedPair(rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(8))
	return Outcome{Fail: rng.Float64() < 0.3}
}

// observedLane runs heatTrial over a lane and puts a seed-derived burst on
// each trial's bandwidth shard.
func observedLane(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
	for i, seed := range seeds {
		out[i] = heatTrial(seed, ctx.Heat[i])
		ctx.BW[i].Observe(int(seed%40), bwprofile.BusLogical, bwprofile.ClassPrep, 1, seed%7+1)
	}
}

// laneRun is one observed run's full output: Result, trial-order Sink
// stream, merged heat and bandwidth, and the executed-trial counter.
type laneRun struct {
	res      Result
	sink     []string
	outs     []Outcome
	heat     string
	bw       string
	executed uint64
}

func runObservedLanes(trials, workers, lane int, ciWidth float64, prior []Outcome) laneRun {
	cell := Seed(91, F64(3e-3), 7)
	heat := heatmap.New(5, 5)
	bw := bwprofile.New(bwprofile.DefaultWindow)
	reg := metrics.New()
	var r laneRun
	r.res = Run(trials, workers, lane, cell, Observers{Metrics: reg,
		CIWidth: ciWidth, Heat: heat, BW: bw, Prior: prior,
		Sink: func(trial int, seed uint64, out Outcome) {
			r.sink = append(r.sink, fmt.Sprintf("%d:%x:%v", trial, seed, out.Fail))
			r.outs = append(r.outs, out)
		},
	}, observedLane)
	r.heat = fmt.Sprint(heat.Defects(), heat.ChainLengths())
	r.bw = fmt.Sprint(bw.Totals(), bw.WindowBytes())
	r.executed = reg.Counter("mc.trials").Value()
	return r
}

// TestRunBatchMatchesRunObserved pins the engine-level equivalence of lane
// widths: for an outcome that is a pure function of the trial seed, a
// lane-batched run (lane 7 or LaneWidth) returns the identical Result,
// trial-ordered Sink stream and merged heat and bandwidth shards as the
// one-trial-per-lane run — across worker counts, ragged final lanes,
// sub-lane trial counts, CI early stop, and resume prefixes that end in the
// middle of a lane. Replayed trials are never executed: without early stop
// the mc.trials counter is exactly the effective count minus the prior.
func TestRunBatchMatchesRunObserved(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trials  int
		ciWidth float64
		prior   int
	}{
		{"sub-lane", 17, 0, 0},
		{"exact-lanes", 128, 0, 0},
		{"ragged", 1000, 0, 0},
		{"ci-stop", 4000, 0.05, 0},
		{"prior-mid-lane", 1000, 0, 37},
		{"prior-second-lane", 1000, 0, 70},
		{"ci-stop-prior", 4000, 0.05, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The checkpoint a resume replays: the Sink stream of an
			// uninterrupted run, cut after tc.prior trials.
			prior := runObservedLanes(tc.trials, 1, 1, 0, nil).outs[:tc.prior]
			want := runObservedLanes(tc.trials, 1, 1, tc.ciWidth, prior)
			if tc.ciWidth > 0 && want.res.Trials >= tc.trials {
				t.Fatalf("CI stop never fired (%d trials)", want.res.Trials)
			}
			for _, lane := range []int{1, 7, LaneWidth} {
				for _, workers := range []int{1, 8} {
					got := runObservedLanes(tc.trials, workers, lane, tc.ciWidth, prior)
					id := fmt.Sprintf("lane=%d workers=%d", lane, workers)
					if got.res != want.res {
						t.Errorf("%s: Result %+v != lane-1 %+v", id, got.res, want.res)
					}
					if fmt.Sprint(got.sink) != fmt.Sprint(want.sink) {
						t.Errorf("%s: Sink stream differs from lane 1", id)
					}
					if got.heat != want.heat {
						t.Errorf("%s: merged heat differs from lane 1", id)
					}
					if got.bw != want.bw {
						t.Errorf("%s: merged bandwidth profile differs from lane 1", id)
					}
					live := uint64(got.res.Trials - tc.prior)
					if tc.ciWidth == 0 && got.executed != live {
						t.Errorf("%s: mc.trials = %d, want %d (effective minus prior)", id, got.executed, live)
					}
					if tc.ciWidth > 0 && got.executed < live {
						t.Errorf("%s: mc.trials = %d below the %d live effective trials", id, got.executed, live)
					}
				}
			}
		})
	}
}

// TestRunBatchLaneGeometry pins the lane protocol: every live trial index is
// handed to fn exactly once, lanes start at the first live trial plus lane
// multiples, only the final lane is short, and seeds[i] is
// TrialSeed(cell, start+i).
func TestRunBatchLaneGeometry(t *testing.T) {
	const trials = 3*LaneWidth + 11
	cell := Seed(7)
	for _, lane := range []int{1, 7, LaneWidth} {
		for _, prior := range []int{0, 37} {
			var mu sync.Mutex
			covered := make([]int, trials)
			Run(trials, 4, lane, cell, Observers{Prior: make([]Outcome, prior)},
				func(start int, seeds []uint64, ctx BatchCtx, out []Outcome) {
					mu.Lock()
					defer mu.Unlock()
					if (start-prior)%lane != 0 {
						t.Errorf("lane=%d prior=%d: lane starts at %d", lane, prior, start)
					}
					if len(seeds) != len(out) {
						t.Errorf("lane at %d: %d seeds but %d outcome slots", start, len(seeds), len(out))
					}
					if len(seeds) != lane && start+len(seeds) != trials {
						t.Errorf("short lane [%d,%d) is not the final lane", start, start+len(seeds))
					}
					for i, seed := range seeds {
						covered[start+i]++
						if want := TrialSeed(cell, start+i); seed != want {
							t.Errorf("trial %d seed = %#x, want %#x", start+i, seed, want)
						}
					}
				})
			for tr, n := range covered {
				want := 1
				if tr < prior {
					want = 0
				}
				if n != want {
					t.Errorf("lane=%d prior=%d: trial %d executed %d times, want %d", lane, prior, tr, n, want)
				}
			}
		}
	}
}

// TestTrialNsSumMatchesBusyGauge is the regression test for the double
// time.Since bug: the engine used to read the clock once for the busy-time
// accounting and again for the mc.trial.ns observation, so the histogram's
// sum could never reconcile with the worker-utilization numbers. With one
// worker at lane 1 there is no cross-worker rounding, so the histogram sum
// must equal the busy gauge exactly.
func TestTrialNsSumMatchesBusyGauge(t *testing.T) {
	reg := metrics.New()
	Run(200, 1, 1, Seed(23), Observers{Metrics: reg}, rateFn(0.2))
	sum := reg.Histogram("mc.trial.ns", metrics.LatencyBounds()).Summary().Sum
	busy := reg.Gauge("mc.worker_busy_ns").Value()
	if sum != busy {
		t.Errorf("mc.trial.ns sum = %v, mc.worker_busy_ns = %v; the engine read the clock twice", sum, busy)
	}

	// Same contract for full lanes: lane durations are amortized per trial,
	// so the per-trial observations must still sum to the busy time (up to
	// float division; the reconstruction is n*(dur/n) per lane).
	regB := metrics.New()
	Run(200, 1, LaneWidth, Seed(23), Observers{Metrics: regB}, rateFn(0.2))
	sumB := regB.Histogram("mc.trial.ns", metrics.LatencyBounds()).Summary().Sum
	busyB := regB.Gauge("mc.worker_busy_ns").Value()
	if busyB == 0 {
		t.Fatal("batched run recorded no busy time")
	}
	if rel := (sumB - busyB) / busyB; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("batched mc.trial.ns sum = %v vs busy %v (rel err %v)", sumB, busyB, rel)
	}
}

// TestProgressMonotonicUnderCIStop is the regression test for the overrun
// progress bug: with CI early stop and many workers, in-flight trials past
// the stop point used to inflate the completion-ordered counts, so a
// mid-run snapshot could exceed the final Done snapshot and the stream ran
// backwards. Snapshots must now report the trial-ordered frontier: strictly
// nondecreasing and never above the effective trial count.
func TestProgressMonotonicUnderCIStop(t *testing.T) {
	for _, lane := range []int{1, LaneWidth} {
		var mu sync.Mutex
		var snaps []Progress
		res := Run(5000, 8, lane, Seed(61, F64(0.4)), Observers{
			CIWidth:       0.2,
			ProgressEvery: 1, // maximal pressure: every completion emits
			Progress: func(p Progress) {
				mu.Lock()
				snaps = append(snaps, p)
				mu.Unlock()
			},
		}, rateFn(0.4))
		if res.Trials >= 5000 {
			t.Fatalf("lane=%d: CI stop never fired (trials = %d); the test needs overrun pressure", lane, res.Trials)
		}
		if len(snaps) == 0 {
			t.Fatalf("lane=%d: no progress snapshots", lane)
		}
		last := snaps[len(snaps)-1]
		if !last.Done || last.Completed != res.Trials {
			t.Fatalf("lane=%d: final snapshot %+v does not carry the Result count %d", lane, last, res.Trials)
		}
		prev := 0
		for i, p := range snaps[:len(snaps)-1] {
			if p.Done {
				t.Errorf("lane=%d: snapshot %d marked Done mid-run", lane, i)
			}
			if p.Completed < prev {
				t.Errorf("lane=%d: progress ran backwards: snapshot %d reports %d after %d", lane, i, p.Completed, prev)
			}
			prev = p.Completed
			if p.Completed > res.Trials {
				t.Errorf("lane=%d: snapshot %d reports %d completed trials, beyond the effective %d",
					lane, i, p.Completed, res.Trials)
			}
		}
	}
}
