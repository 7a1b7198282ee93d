// Package mc is the repository's parallel Monte-Carlo trial engine. Every
// statistical experiment — the threshold sweep, the machine-level memory
// experiment, the windowed-decoder validation — is "run N independent noisy
// trials, count failures", and decode throughput is exactly what gates
// statistical confidence (cf. the decoder micro-architectures of Das et al.
// and the feedback system of Liu et al.). Run fans trials across a bounded
// worker pool while keeping the statistics bit-identical for any worker
// count:
//
//   - each trial's randomness comes only from a per-trial seed derived with
//     a SplitMix64-style mix of (experiment seed, cell parameters, trial
//     index), never from shared RNG state or scheduling order;
//   - outcomes are recorded per trial index and reduced in trial order, so
//     the returned counts, error and confidence interval do not depend on
//     which goroutine finished first.
//
// Sweep-style experiments mix their cell parameters (error rate, distance,
// rounds, ...) into the cell seed with Seed/F64 so that no two sweep cells
// replay correlated fault patterns — the seed-reuse bug this package was
// built to kill.
package mc

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// Outcome is the result of a single trial.
type Outcome struct {
	// Fail marks the trial as a failure (a logical error, a wrong readout).
	Fail bool
	// Err is a trial-level execution error (machine did not drain, bad
	// config). The first error in trial order is surfaced on the Result.
	Err error
}

// Result aggregates a run. Rate carries a Wilson score interval: with a
// handful of failures out of a few hundred trials the normal approximation
// is badly miscalibrated, while Wilson stays valid down to zero failures.
type Result struct {
	Trials   int
	Failures int
	// Rate is Failures/Trials (0 for an empty run).
	Rate float64
	// WilsonLo and WilsonHi bound Rate at 95% confidence.
	WilsonLo, WilsonHi float64
	// Err is the first trial error in trial order, nil if all trials ran.
	Err error
}

// splitmix64 is the SplitMix64 output permutation (Steele, Lea & Flood) —
// a cheap, well-mixed finalizer whose increment constant is the golden
// ratio. Used both to combine seed words and to derive sub-streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed folds any number of 64-bit words (experiment seed, cell parameters,
// indices) into one well-mixed seed. Word order matters, so Seed(a, b) and
// Seed(b, a) name different streams.
func Seed(words ...uint64) uint64 {
	s := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		s = splitmix64(s ^ w)
	}
	return s
}

// F64 maps a float parameter (an error rate, a duration) to a seed word via
// its IEEE-754 bits, so distinct sweep values give distinct streams.
func F64(p float64) uint64 { return math.Float64bits(p) }

// TrialSeed derives the seed for one trial of a cell.
func TrialSeed(cellSeed uint64, trial int) uint64 {
	return Seed(cellSeed, uint64(trial))
}

// Derive splits a trial seed into independent sub-streams (tableau RNG,
// injector RNG, ...) by lane index.
func Derive(seed uint64, lane uint64) uint64 {
	return Seed(seed, lane)
}

// wallClock is the engine's single wall-clock read. It feeds only the
// mc.worker_busy_ns gauge and the mc.trial.ns latency histogram; seeds and
// simulated time derive from the experiment seed via the SplitMix64
// mixers, never from here.
func wallClock() time.Time {
	return time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
}

// Wilson returns the Wilson score interval for k failures in n trials at
// normal quantile z (1.96 for 95%).
func Wilson(failures, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 0
	}
	n := float64(trials)
	p := float64(failures) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Progress is a snapshot handed to a progress sink while a run is in
// flight. Completed and Failures count in completion order (display only —
// they may differ between runs with different worker counts until the pool
// drains), starting from the replayed Observers.Prior prefix so a resumed
// run's counts share the denominator of its Budget; the Wilson interval is
// computed over exactly those counts. Under CI early stop the snapshots
// instead report the trial-ordered frontier of consecutive completed
// trials, so Completed never exceeds the effective trial count even when
// in-flight workers execute overrun trials. The final call of a run
// carries Done=true and the trial-order-exact Result numbers.
type Progress struct {
	Completed int
	Failures  int
	// Budget is the run's requested trial count — the denominator a live
	// display needs for percent-complete and ETA. Under CI early stop the
	// run may finish below it.
	Budget             int
	WilsonLo, WilsonHi float64
	Done               bool
}

// Observers bundles the optional observation hooks of Run. The zero value
// observes nothing and adds nothing to the hot path.
type Observers struct {
	// Metrics, when non-nil, gives each worker a private Registry (fn sees
	// it as BatchCtx.Shard), merged into Metrics in worker order when the
	// pool drains; counters and fixed-bucket histograms merge by addition,
	// so the totals are worker-count independent and only the wall-clock
	// gauges (mc.trials_per_sec, mc.worker_utilization) reflect this
	// particular run. The mc.trial.ns histogram observes each lane's
	// duration amortized per trial. Nil leaves BatchCtx.Shard nil.
	Metrics *metrics.Registry

	// Tracer, when non-nil, gives each worker a private Tracer merged into
	// it, whose exporter sorts canonically, so the trace JSON is
	// byte-identical for every worker count.
	Tracer *tracing.Tracer

	// Progress, when non-nil, is called every ProgressEvery completed
	// trials (default trials/100, min 1) and once more with Done=true
	// after the pool drains. Calls are serialized but may come from worker
	// goroutines; keep the sink fast.
	Progress      func(Progress)
	ProgressEvery int

	// CIWidth > 0 enables adaptive early stop: the run ends at the first
	// trial count n ≥ MinTrials (default 10) whose prefix of trial-ordered
	// outcomes has a 95% Wilson interval no wider than CIWidth. The stop
	// decision is a pure function of trial-ordered outcomes — a frontier
	// over consecutive completed trials, never completion order — so the
	// effective trial count, Result and ledger are identical for any
	// worker count and lane width. Workers may execute trials beyond the
	// stop point (up to the rest of an in-flight lane each) before
	// observing it; those outcomes are discarded from the Result (but
	// metrics/tracing shards, which observe execution, still see them).
	CIWidth   float64
	MinTrials int

	// Heat, when non-nil, gives every trial a private shard (Heat.NewShard)
	// via BatchCtx; shards of the effective trials are merged into Heat in
	// trial order after the pool drains.
	Heat *heatmap.Collector

	// BW, when non-nil, gives every trial a private bandwidth-profile shard
	// (BW.NewShard) via BatchCtx; shards of the effective trials are merged
	// into BW in trial order after the pool drains, so the quest-bw/1
	// waveform bytes are identical for any worker count.
	BW *bwprofile.Recorder

	// Sink, when non-nil, receives every effective trial's outcome in
	// trial order after the pool drains — the ledger writer's feed. It
	// runs on the caller's goroutine.
	Sink func(trial int, seed uint64, out Outcome)

	// Prior replays previously-recorded outcomes for the run's leading
	// trials — the checkpoint/resume hook. Trial t < len(Prior) is never
	// executed: its outcome is taken verbatim from Prior[t] and fed to the
	// reduction, the CI-stop frontier and the Sink exactly as if it had
	// just run. Because outcomes are pure functions of (cellSeed, trial),
	// a Prior prefix recorded by an earlier run leaves the Result and the
	// ledger bytes identical to a full re-run — it only skips the work.
	// Prefixes longer than the trial budget are truncated. Honoured at every
	// lane width: lanes start at the first live trial, so a prefix ending
	// mid-lane needs no re-execution. Replayed trials are invisible to the
	// wall-clock instruments (mc.trials counts only executed trials) and
	// contribute empty heat and bandwidth shards; the live progress counts
	// start from them.
	Prior []Outcome
}

// defaultMinStopTrials floors the CI-stop rule: Wilson intervals over a
// handful of trials are wide but not infinitely so, and stopping a cell on
// three lucky trials would be statistics malpractice.
const defaultMinStopTrials = 10

// stopState is the CI-convergence early-stop tracker. Workers report each
// finished trial; under the mutex a frontier advances over *consecutive*
// completed trials in trial order, maintaining the prefix failure count, and
// the stop rule fires at the first frontier position n ≥ minTrials whose
// Wilson interval is narrower than width. Because the frontier only ever
// consumes trial-ordered prefixes, the decision is a pure function of
// trial-ordered outcomes — completion order and worker count cannot change
// it.
type stopState struct {
	// stopAt bounds trial claiming: the trial budget until the frontier
	// fires, then the effective trial count. Read lock-free by workers.
	stopAt      atomic.Int64
	mu          sync.Mutex
	width       float64
	minTrials   int
	done        []bool
	fails       []bool
	frontier    int
	prefixFails int
	stopped     bool
	stopN       int
}

// newStopState builds the tracker, or returns nil when CI-stop is off.
func newStopState(width float64, minTrials, trials int) *stopState {
	if width <= 0 {
		return nil
	}
	if minTrials <= 0 {
		minTrials = defaultMinStopTrials
	}
	st := &stopState{
		width: width, minTrials: minTrials,
		done: make([]bool, trials), fails: make([]bool, trials),
	}
	st.stopAt.Store(int64(trials))
	return st
}

// observe records trial t's outcome and advances the frontier; on stop it
// publishes the bound through stopAt so workers cease claiming new trials.
func (st *stopState) observe(t int, fail bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stopped {
		return
	}
	st.done[t] = true
	st.fails[t] = fail
	for st.frontier < len(st.done) && st.done[st.frontier] {
		if st.fails[st.frontier] {
			st.prefixFails++
		}
		st.frontier++
		if n := st.frontier; n >= st.minTrials {
			lo, hi := Wilson(st.prefixFails, n, 1.96)
			if hi-lo <= st.width {
				st.stopped = true
				st.stopN = n
				st.stopAt.Store(int64(n))
				return
			}
		}
	}
}

// snapshot returns the trial-ordered frontier and its prefix failure count.
// The frontier is monotone and, once the stop rule fires, frozen at the
// effective trial count — which is what makes it safe to publish as live
// progress: it can never exceed the final Done snapshot.
func (st *stopState) snapshot() (completed, failures int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.frontier, st.prefixFails
}

// progressState throttles and serializes the live-progress sink.
type progressState struct {
	mu        sync.Mutex
	fn        func(Progress)
	every     int
	budget    int
	completed int
	failures  int
	// st is the CI-stop tracker when early stop is active, nil otherwise.
	// With it set, emitted snapshots report the trial-ordered frontier
	// instead of raw completion counts: workers keep executing a few
	// overrun trials after the stop point, and counting those would let an
	// intermediate Completed exceed the final Done count (the stream would
	// run backwards).
	st *stopState
}

// newProgressState builds the throttle, or returns nil when the sink is off.
// The counters start from the replayed prior outcomes, so a resumed run
// reports progress against its full budget rather than restarting at zero.
func newProgressState(fn func(Progress), every, trials int, st *stopState, prior []Outcome) *progressState {
	if fn == nil {
		return nil
	}
	if every <= 0 {
		every = trials / 100
		if every < 1 {
			every = 1
		}
	}
	ps := &progressState{fn: fn, every: every, budget: trials, st: st, completed: len(prior)}
	for _, o := range prior {
		if o.Fail {
			ps.failures++
		}
	}
	return ps
}

func (ps *progressState) observe(fail bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.completed++
	if fail {
		ps.failures++
	}
	if ps.completed%ps.every != 0 {
		return
	}
	completed, failures := ps.completed, ps.failures
	if ps.st != nil {
		completed, failures = ps.st.snapshot()
		if completed == 0 {
			return // nothing trial-ordered to report yet
		}
	}
	lo, hi := Wilson(failures, completed, 1.96)
	ps.fn(Progress{Completed: completed, Failures: failures, Budget: ps.budget, WilsonLo: lo, WilsonHi: hi})
}

// LaneWidth is the widest lane Run hands a trial function: a batched engine
// packs one trial per bit of a uint64, so noise masks and syndrome lanes
// combine with single word ops.
const LaneWidth = 64

// BatchCtx carries the observation hooks into one lane of a trial function.
// Shard and Trace are worker-private; Heat and BW hold one trial-private
// shard per trial in the lane, indexed like the lane's seeds, so the merged
// heatmaps and bandwidth waveforms stay worker-count independent even under
// CI early stop, where different worker counts execute different overrun
// trials. Every field is nil when its observer is off.
type BatchCtx struct {
	// Shard is the worker-private metrics registry.
	Shard *metrics.Registry
	// Trace is the worker-private tracer shard.
	Trace *tracing.Tracer
	// Heat[i] is the private heat shard of trial start+i.
	Heat []*heatmap.Collector
	// BW[i] is the private bandwidth-profile shard of trial start+i.
	BW []*bwprofile.Recorder
}

// BatchFn executes one lane of consecutive trials. start is the first trial
// index; seeds[i] is TrialSeed(cellSeed, start+i); out[i] must be filled
// with trial start+i's outcome. fn must take all randomness from the
// per-trial seeds and share no mutable state across lanes beyond read-only
// tables and worker-private scratch.
type BatchFn func(start int, seeds []uint64, ctx BatchCtx, out []Outcome)

// worker is one pool goroutine's private state, allocated together so the
// pool costs one allocation however many hooks are off.
type worker struct {
	shard  *metrics.Registry
	busyNs int64 // time spent inside fn
	seeds  [LaneWidth]uint64
}

// Run executes trials over a worker pool and reduces the outcomes.
//
// Workers claim lanes of up to lane consecutive trials (1 ≤ lane ≤
// LaneWidth): lane 1 hands out one trial at a time, LaneWidth lets fn
// amortize per-trial setup and bit-slice per-trial state across a word.
// Lanes start at the first live trial after any Observers.Prior prefix, and
// only the final lane may be short. workers <= 0 uses GOMAXPROCS; the pool
// never exceeds the lane count.
//
// Under fn's determinism rules (see BatchFn) the Result, CI early stop,
// heat and bandwidth merges and the trial-order Sink are identical for every
// worker count and every lane width: outcomes are recorded per trial index
// and reduced in trial order after the pool drains, never in completion
// order.
//
// Instruments and tracers (Observers.Metrics, Observers.Tracer) observe the
// computation; they never feed back into it.
func Run(trials, workers, lane int, cellSeed uint64, obs Observers, fn BatchFn) Result {
	if trials <= 0 {
		return Result{}
	}
	// Replayed prior outcomes occupy the leading trial slots without being
	// executed: lanes start at the first live trial, and the CI-stop
	// frontier consumes the replayed prefix first so a resumed run stops
	// exactly where the uninterrupted run would have.
	prior := min(len(obs.Prior), trials) // single-assigned: captured by value
	lanes := (trials - prior + lane - 1) / lane
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > lanes {
		workers = lanes
	}
	outcomes := make([]Outcome, trials)
	copy(outcomes, obs.Prior[:prior])
	var nextLane atomic.Int64
	var wg sync.WaitGroup
	pool := make([]worker, workers)
	// Observer state is nil when the corresponding hook is off, and every
	// local here is assigned exactly once so the goroutine closure captures
	// plain values, not heap cells: the unobserved path allocates nothing
	// extra (pinned by TestRunAllocs).
	reg, tr := obs.Metrics, obs.Tracer
	traces := makeTraceShards(tr, workers)
	st := newStopState(obs.CIWidth, obs.MinTrials, trials)
	if st != nil {
		// Feed the replayed prefix to the stop frontier before any worker
		// starts: if the checkpointed run had already converged, stopAt
		// drops below the first live trial and no worker claims anything.
		for t := 0; t < prior; t++ {
			st.observe(t, outcomes[t].Fail)
		}
	}
	prog := newProgressState(obs.Progress, obs.ProgressEvery, trials, st, outcomes[:prior])
	heatParent := obs.Heat
	heatShards := makeHeatShards(heatParent, trials)
	bwParent := obs.BW
	bwShards := makeBWShards(bwParent, trials)
	start := wallClock()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		if reg != nil {
			pool[w].shard = metrics.New()
		}
		go func(w int) {
			defer wg.Done()
			ws := &pool[w]
			shard := ws.shard
			var trace *tracing.Tracer
			if traces != nil {
				trace = traces[w]
			}
			var trialNs *metrics.Histogram
			var nTrials, nFails *metrics.Counter
			if shard != nil {
				trialNs = shard.Histogram("mc.trial.ns", metrics.LatencyBounds())
				nTrials = shard.Counter("mc.trials")
				nFails = shard.Counter("mc.failures")
			}
			for {
				lo := prior + int(nextLane.Add(1)-1)*lane
				if lo >= trials {
					return
				}
				if st != nil && lo >= int(st.stopAt.Load()) {
					return
				}
				n := lane
				if lo+n > trials {
					n = trials - lo
				}
				seeds := ws.seeds[:n]
				for i := range seeds {
					seeds[i] = TrialSeed(cellSeed, lo+i)
				}
				ctx := BatchCtx{Shard: shard, Trace: trace}
				// Gate on the parents, not the shard slices: they are
				// non-nil together, and the receiver gate is the form the
				// nil-gating contract (gateflow) can prove.
				if heatParent != nil {
					ctx.Heat = heatShards[lo : lo+n]
					for i := range ctx.Heat {
						ctx.Heat[i] = heatParent.NewShard()
					}
				}
				if bwParent != nil {
					ctx.BW = bwShards[lo : lo+n]
					for i := range ctx.BW {
						ctx.BW[i] = bwParent.NewShard()
					}
				}
				out := outcomes[lo : lo+n]
				t0 := wallClock()
				fn(lo, seeds, ctx, out)
				// Capture the duration once: busyNs (worker utilization)
				// and the mc.trial.ns histogram must observe the same
				// value, or the two can never reconcile.
				dur := time.Since(t0)
				ws.busyNs += int64(dur)
				if shard != nil {
					perTrial := float64(dur) / float64(n)
					for i := 0; i < n; i++ {
						trialNs.Observe(perTrial)
					}
					nTrials.Add(uint64(n))
				}
				for i, o := range out {
					if shard != nil && o.Fail {
						nFails.Inc()
					}
					if st != nil {
						st.observe(lo+i, o.Fail)
					}
					if prog != nil {
						prog.observe(o.Fail)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if tr != nil {
		for _, shard := range traces {
			tr.Merge(shard)
		}
	}
	// effective is the trial-order prefix the Result covers: the whole
	// budget, or the CI-stop point. The frontier only fires once every
	// trial before it is done, so every outcome and shard below the cut was
	// executed (or replayed) even though lanes complete out of order.
	// Trials executed past the stop point by in-flight workers are
	// discarded from the Result, the merges and the Sink, which is what
	// keeps everything derived from outcomes worker-count independent.
	effective := trials
	if st != nil && st.stopped {
		effective = st.stopN
	}
	if reg != nil {
		var busy int64
		for i := range pool {
			reg.Merge(pool[i].shard)
			busy += pool[i].busyNs
		}
		reg.Gauge("mc.worker_busy_ns").Set(float64(busy))
		if elapsed > 0 {
			reg.Gauge("mc.trials_per_sec").Set(float64(effective) / elapsed.Seconds())
			reg.Gauge("mc.worker_utilization").Set(
				float64(busy) / (float64(elapsed) * float64(workers)))
		}
		reg.Gauge("mc.workers").Set(float64(workers))
	}
	res := Result{Trials: effective}
	for _, out := range outcomes[:effective] {
		if out.Fail {
			res.Failures++
		}
		if out.Err != nil && res.Err == nil { // trial order: first error wins
			res.Err = out.Err
		}
	}
	res.Rate = float64(res.Failures) / float64(effective)
	res.WilsonLo, res.WilsonHi = Wilson(res.Failures, effective, 1.96)
	if heatParent != nil {
		for _, hs := range heatShards[:effective] {
			heatParent.Merge(hs)
		}
	}
	if bwParent != nil {
		for _, bs := range bwShards[:effective] {
			bwParent.Merge(bs)
		}
	}
	if obs.Sink != nil {
		for t, out := range outcomes[:effective] {
			obs.Sink(t, TrialSeed(cellSeed, t), out)
		}
	}
	if prog != nil {
		prog.mu.Lock() // pairs with worker emits; also makes -race happy
		prog.fn(Progress{Completed: effective, Failures: res.Failures, Budget: prog.budget,
			WilsonLo: res.WilsonLo, WilsonHi: res.WilsonHi, Done: true})
		prog.mu.Unlock()
	}
	return res
}

// makeHeatShards builds the per-trial heat shard store, or returns nil when
// heatmaps are off. Shards are per *trial*, not per worker: under CI early
// stop different worker counts execute different overrun trials, and only a
// trial-indexed store lets the merge discard exactly the overrun.
func makeHeatShards(heat *heatmap.Collector, trials int) []*heatmap.Collector {
	if heat == nil {
		return nil
	}
	return make([]*heatmap.Collector, trials)
}

// makeBWShards builds the per-trial bandwidth-profile shard store, or
// returns nil when profiling is off. Per-trial for the same CI-early-stop
// reason as makeHeatShards: the merge must discard exactly the overrun
// trials.
func makeBWShards(bw *bwprofile.Recorder, trials int) []*bwprofile.Recorder {
	if bw == nil {
		return nil
	}
	return make([]*bwprofile.Recorder, trials)
}

// makeTraceShards builds one private Tracer per worker, each sized like the
// merge target, or returns nil when tracing is off.
func makeTraceShards(tr *tracing.Tracer, workers int) []*tracing.Tracer {
	if tr == nil {
		return nil
	}
	traces := make([]*tracing.Tracer, workers)
	for w := range traces {
		traces[w] = tracing.New(tr.Capacity())
	}
	return traces
}
