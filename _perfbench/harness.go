package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"quest/internal/awg"
	"quest/internal/bwprofile"
	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/core"
	"quest/internal/decoder"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/ledger"
	"quest/internal/noise"
	"quest/internal/surface"
	techs "quest/internal/workload"
)

// harness drives one cell of a workload in this process through the
// layers' public calls, with a span around each call. It never goes through
// core's sweep functions or the mc engine, so the split it measures does not
// depend on how those are wired.
type harness struct {
	rec      *recorder
	deadline time.Time
	trials   int
	errs     []string
}

func (h *harness) more() bool { return h.trials == 0 || time.Now().Before(h.deadline) }

// call runs f inside a span.
func (h *harness) call(name string, f func()) {
	s := h.rec.begin(name)
	f()
	h.rec.end(s)
}

// startTrial opens the root span of trial h.trials; all spans until
// endTrial carry its id.
func (h *harness) startTrial() int32 {
	h.rec.trial = int32(h.trials)
	return h.rec.begin("trial")
}

func (h *harness) endTrial(s int32, err error) {
	h.rec.end(s)
	h.rec.trial = -1
	if err != nil {
		h.errs = append(h.errs, fmt.Sprintf("trial %d: %v", h.trials, err))
	}
	h.trials++
}

// splitmix is SplitMix64's output function; the harness derives its cell
// and trial seeds from the benchmark seed with it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// harnessThreshold runs trials of the threshold sweep's p=1e-3, d=5 cell:
// the scalar tableau trial body questbench's threshold experiment runs
// (clean reference round, d noisy rounds, clean closing round, windowed
// decode, logical readout).
func harnessThreshold(h *harness, seed int64) {
	const p, d = 1e-3, 5
	var lat surface.Lattice
	var words []isa.VLIW
	h.call("surface.CompileCycle", func() {
		lat = surface.NewPlanar(d)
		words = surface.CompileCycle(lat, surface.Steane, nil)
	})
	logZ := lat.LogicalZ()
	cell := splitmix(uint64(seed))
	for h.more() {
		ts := h.startTrial()
		ss := splitmix(cell + uint64(h.trials))
		var tb *clifford.Tableau
		h.call("clifford.New", func() {
			tb = clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(splitmix(ss)))))
		})
		var inj *noise.Injector
		h.call("noise.NewInjector", func() { inj = noise.NewInjector(noise.Uniform(p), int64(splitmix(ss+1))) })
		noisy, clean := awg.New(tb, inj), awg.New(tb, nil)
		run := func(u *awg.ExecutionUnit) map[int]int {
			synd := make(map[int]int)
			u.MeasSink = func(q, bit int) { synd[q] = bit }
			for _, w := range words {
				h.call("awg.ExecuteWord", func() { u.ExecuteWord(w) })
			}
			return synd
		}
		hist := decoder.NewHistory(lat)
		frame := decoder.NewPauliFrame()
		win := decoder.NewWindowDecoder(decoder.NewGlobalDecoder(lat), d)
		absorb := func(synd map[int]int) (defects []decoder.Defect) {
			h.call("decoder.SyndromeHistory.Absorb", func() { defects = hist.Absorb(synd) })
			return defects
		}
		window := func(defects []decoder.Defect) {
			h.call("decoder.WindowDecoder.Absorb", func() { win.Absorb(defects, frame) })
		}
		run(clean)
		absorb(run(clean))
		for round := 0; round < d; round++ {
			inj.SetLocation(round, 0)
			window(absorb(run(noisy)))
		}
		window(absorb(run(clean)))
		h.call("decoder.WindowDecoder.Flush", func() { win.Flush(frame) })
		var raw int
		h.call("clifford.MeasureObservable", func() { raw = tb.MeasureObservable(nil, logZ) })
		_ = raw // a logical failure is physics, not a harness error
		h.endTrial(ts, nil)
	}
}

// harnessMemory runs trials of the memory sweep's p=5e-4, 8-round cell the
// way questbench's memory experiment does: one pooled machine, Reset per
// trial, prepare / idle rounds / measure through the master, with the
// sweep's observers on (a ledger record per trial, a per-trial heat set
// merged into the cell collector, the bandwidth recorder).
func harnessMemory(h *harness, seed int64) {
	const p, rounds = 5e-4, 8
	cfg := core.DefaultMachineConfig()
	cfg.PatchesPerTile = 1
	cfg.DecodeWindow = cfg.Distance
	nm := noise.Uniform(p)
	cfg.Noise = &nm
	lat := compiler.NewLayout(cfg.Distance, 1).Lat
	grid := heatmap.GridName(lat.Rows, lat.Cols)
	cellHeat := heatmap.NewSet()
	collector := cellHeat.Collector(grid, lat.Rows, lat.Cols)
	bw := bwprofile.New(8)
	var ledgerBuf bytes.Buffer
	lw, err := ledger.NewWriter(&ledgerBuf, "perfbench", map[string]string{"cell": "memory"}, 1)
	if err != nil {
		h.errs = append(h.errs, err.Error())
		return
	}
	cell := splitmix(uint64(seed) ^ 0x3e3)
	var m *core.Machine
	for h.more() {
		ts := h.startTrial()
		ss := splitmix(cell + uint64(h.trials))
		hs := heatmap.NewSet()
		if m == nil {
			cfg.Seed, cfg.Heat, cfg.BW = int64(ss), hs, bw
			h.call("core.NewMachine", func() { m = core.NewMachine(cfg) })
		} else {
			h.call("core.Machine.Reset", func() { m.Reset(int64(ss), nil, nil, hs, bw) })
		}
		fail, err := memoryTrial(h, m, rounds)
		h.call("observers.record", func() {
			collector.Merge(hs.Collector(grid, lat.Rows, lat.Cols))
			if werr := lw.WriteTrial(ledger.Trial{Cell: "memory", Trial: h.trials,
				Seed: ledger.SeedString(ss), Fail: fail}); werr != nil && err == nil {
				err = werr
			}
		})
		h.endTrial(ts, err)
	}
	h.call("observers.write", func() {
		var out bytes.Buffer
		for _, err := range []error{lw.Flush(), cellHeat.WriteJSON(&out),
			bw.WriteJSONL(&out, "perfbench", map[string]string{"cell": "memory"})} {
			if err != nil {
				h.errs = append(h.errs, err.Error())
			}
		}
	})
}

func memoryTrial(h *harness, m *core.Machine, rounds int) (fail bool, err error) {
	mm := m.Master()
	step := func() { h.call("master.StepCycle", func() { mm.StepCycle() }) }
	dispatch := func(op isa.LogicalOpcode) error {
		var err error
		h.call("master.Dispatch", func() { err = mm.Dispatch(0, isa.LogicalInstr{Op: op, Target: 0}) })
		return err
	}
	step()
	if err := dispatch(isa.LPrep0); err != nil {
		return false, err
	}
	for c := 0; c < rounds; c++ {
		step()
	}
	if err := dispatch(isa.LMeasZ); err != nil {
		return false, err
	}
	var ok bool
	got := -1
	h.call("master.RunUntilDrained", func() {
		reps, drained := mm.RunUntilDrained(rounds + 50)
		ok = drained
		for _, r := range reps {
			for _, res := range r.Results {
				got = res.Bit
			}
		}
	})
	if !ok {
		return false, fmt.Errorf("machine did not drain")
	}
	return got != 0, nil
}

// harnessDistill replays the distillation body distillReplays times per
// trial on one machine, Reset between trials, and checks each report
// against the same pinned statistics questsim's output must match.
func harnessDistill(h *harness, seed int64) {
	cfg := core.DefaultMachineConfig()
	cfg.Seed = seed
	t := techs.ProjectedD // questsim's default -tech projd timing model
	cfg.Timing = &awg.Timing{PrepNs: t.TPrep, Gate1Ns: t.T1, MeasNs: t.TMeas, CNOTNs: t.TCNOT, IdleNs: t.T1}
	want := distillPins[distillReplays]
	var m *core.Machine
	for h.more() {
		ts := h.startTrial()
		if m == nil {
			h.call("core.NewMachine", func() { m = core.NewMachine(cfg) })
		} else {
			h.call("core.Machine.Reset", func() { m.Reset(seed, nil, nil, nil, nil) })
		}
		var rep core.RunReport
		var err error
		h.call("core.Machine.RunDistillationCached", func() { rep, err = m.RunDistillationCached(distillReplays, 0) })
		if err == nil {
			// questsim's default 50 idle QECC cycles, which its µop count
			// includes.
			for c := 0; c < int(want.IdleCycles); c++ {
				h.call("master.StepCycle", func() { m.Master().StepCycle() })
			}
			uops, _, _, _, _ := m.Master().Tiles()[0].Stats()
			if rep.Cycles != int(want.Cycles) || rep.LogicalRetired != int(want.LogicalRetired) ||
				rep.BaselineBusBytes != uint64(want.BaselineBytes) || rep.QuESTBusBytes != uint64(want.QuESTBytes) ||
				uops != uint64(want.MicroOps) {
				err = fmt.Errorf("distillation report %+v (%d µops) differs from the pinned statistics", rep, uops)
			}
		}
		h.endTrial(ts, err)
	}
}

// harnessResult is what the traced run reports from the harness.
type harnessResult struct {
	trials      int
	errs        []string
	spans       []span
	attr        attribution
	allocBytes  uint64
	allocs      uint64
	wallSeconds float64
}

// runHarness runs w's harness until deadline under a CPU profile.
func runHarness(w *workload, seed int64, deadline time.Time) (harnessResult, error) {
	h := &harness{rec: newRecorder(), deadline: deadline}
	var prof bytes.Buffer
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return harnessResult{}, err
	}
	t0 := time.Now()
	w.harness(h, seed)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return harnessResult{}, err
	}
	return harnessResult{
		trials: h.trials, errs: h.errs, spans: h.rec.spans, attr: attribute(p),
		allocBytes: after.TotalAlloc - before.TotalAlloc, allocs: after.Mallocs - before.Mallocs,
		wallSeconds: wall,
	}, nil
}
