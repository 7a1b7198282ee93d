package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"quest/internal/bandwidth"
	"quest/internal/bwprofile"
	"quest/internal/compiler"
	"quest/internal/concat"
	"quest/internal/distill"
	"quest/internal/dram"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/jj"
	"quest/internal/mc"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/probe"
	"quest/internal/surface"
	"quest/internal/workload"
)

// This file regenerates every table and figure of the paper's evaluation.
// Each ExpNN function returns structured rows; Format renders them as the
// text tables cmd/questbench prints and EXPERIMENTS.md records.

// Fig2Row is one point of Figure 2: baseline instruction bandwidth versus
// machine size for Shor's algorithm.
type Fig2Row struct {
	Bits          int
	LogicalQubits int
	Distance      int
	PhysQubits    int
	Bandwidth     bandwidth.BytesPerSec
}

// Fig2 sweeps Shor moduli from 128 to 1024 bits.
func Fig2() []Fig2Row {
	var rows []Fig2Row
	est := workload.NewEstimator()
	for _, bits := range []int{128, 256, 512, 1024} {
		p := workload.ShorProfile(bits)
		e := est.Estimate(p)
		rows = append(rows, Fig2Row{
			Bits:          bits,
			LogicalQubits: p.LogicalQubits,
			Distance:      e.Distance,
			PhysQubits:    e.TotalPhysical,
			Bandwidth:     bandwidth.BytesPerSec(workload.NaiveBandwidth(e.TotalPhysical)),
		})
	}
	return rows
}

// Fig6Row is one bar of Figure 6: the QECC:regular instruction ratio.
type Fig6Row struct {
	Workload string
	Ratio    float64
	Orders   float64
	QECCFrac float64
}

// Fig6 computes the QECC overhead for the seven workloads.
func Fig6() []Fig6Row {
	var rows []Fig6Row
	est := workload.NewEstimator()
	for _, p := range workload.Suite() {
		e := est.Estimate(p)
		r := e.QECCOverhead()
		rows = append(rows, Fig6Row{
			Workload: p.Name,
			Ratio:    r,
			Orders:   math.Log10(r),
			QECCFrac: e.QECCInstrs / (e.QECCInstrs + e.LogicalInstrs),
		})
	}
	return rows
}

// Fig10Row is one point of Figure 10: required microcode capacity versus
// serviced qubits per design.
type Fig10Row struct {
	Qubits   int
	RAMBits  int
	FIFOBits int
	CellBits int
}

// Fig10 sweeps qubit counts over the capacity scaling laws.
func Fig10() []Fig10Row {
	var rows []Fig10Row
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		rows = append(rows, Fig10Row{
			Qubits:   n,
			RAMBits:  microcode.CapacityBits(microcode.DesignRAM, surface.Steane, n),
			FIFOBits: microcode.CapacityBits(microcode.DesignFIFO, surface.Steane, n),
			CellBits: microcode.CapacityBits(microcode.DesignUnitCell, surface.Steane, n),
		})
	}
	return rows
}

// Fig11Row is one cluster of Figure 11: qubits serviced per MCE at a fixed
// 4 Kb budget.
type Fig11Row struct {
	Config   jj.MemoryConfig
	RAM      int
	FIFO     int
	UnitCell int
}

// Fig11 evaluates the three designs over the 1/2/4-channel configurations
// (plus the 8-channel point used by Table 2).
func Fig11() []Fig11Row {
	var rows []Fig11Row
	for _, cfg := range jj.Configs4Kb() {
		rows = append(rows, Fig11Row{
			Config:   cfg,
			RAM:      microcode.QubitsServiced(microcode.DesignRAM, surface.Steane, cfg, microcode.InstructionWindowNs),
			FIFO:     microcode.QubitsServiced(microcode.DesignFIFO, surface.Steane, cfg, microcode.InstructionWindowNs),
			UnitCell: microcode.QubitsServiced(microcode.DesignUnitCell, surface.Steane, cfg, microcode.InstructionWindowNs),
		})
	}
	return rows
}

// Fig13Row is one bar of Figure 13: T-factory instruction overhead.
type Fig13Row struct {
	Workload      string
	DistillRounds int
	Factories     int
	Ratio         float64
	Orders        float64
}

// Fig13 computes the distillation overhead for the seven workloads.
func Fig13() []Fig13Row {
	var rows []Fig13Row
	est := workload.NewEstimator()
	for _, p := range workload.Suite() {
		e := est.Estimate(p)
		rows = append(rows, Fig13Row{
			Workload:      p.Name,
			DistillRounds: e.DistillRounds,
			Factories:     e.Factories,
			Ratio:         e.TFactoryOverhead(),
			Orders:        math.Log10(e.TFactoryOverhead()),
		})
	}
	return rows
}

// Fig14Row is one workload of Figure 14: bandwidth savings of QuEST and
// QuEST+cache over the software-managed baseline.
type Fig14Row struct {
	Workload     string
	BaselineBW   bandwidth.BytesPerSec
	QuESTBW      bandwidth.BytesPerSec
	QuESTCacheBW bandwidth.BytesPerSec
	SavingsQuEST float64
	SavingsCache float64
	OrdersQuEST  float64
	OrdersCache  float64
}

// Fig14 computes global bandwidth savings at the paper's default operating
// point (Projected_D, Steane, p=1e-4).
func Fig14() []Fig14Row {
	return fig14At(workload.NewEstimator())
}

func fig14At(est *workload.Estimator) []Fig14Row {
	var rows []Fig14Row
	for _, p := range workload.Suite() {
		e := est.Estimate(p)
		rows = append(rows, Fig14Row{
			Workload:     p.Name,
			BaselineBW:   bandwidth.BytesPerSec(e.BaselineBandwidth()),
			QuESTBW:      bandwidth.BytesPerSec(e.QuESTBandwidth()),
			QuESTCacheBW: bandwidth.BytesPerSec(e.QuESTCacheBandwidth()),
			SavingsQuEST: e.SavingsQuEST(),
			SavingsCache: e.SavingsQuESTCache(),
			OrdersQuEST:  math.Log10(e.SavingsQuEST()),
			OrdersCache:  math.Log10(e.SavingsQuESTCache()),
		})
	}
	return rows
}

// Fig14CoefficientOfVariation reports how little the savings move across
// syndrome designs and technologies (the paper quotes a coefficient of
// variation of 0.0002% between configurations).
func Fig14CoefficientOfVariation() float64 {
	var vals []float64
	for _, sched := range []surface.Schedule{surface.Steane, surface.Shor} {
		for _, tech := range workload.Techs() {
			est := workload.NewEstimator()
			est.Schedule = sched
			est.Tech = tech
			sum := 0.0
			for _, r := range fig14At(est) {
				sum += r.OrdersCache
			}
			vals = append(vals, sum/7)
		}
	}
	mean, sd := meanStd(vals)
	return sd / mean
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return mean, sd
}

// Fig15Row is one (error rate, workload) cell of Figure 15.
type Fig15Row struct {
	ErrorRate    float64
	Workload     string
	Distance     int
	SavingsQuEST float64
	SavingsCache float64
	DistillOv    float64
}

// Fig15 sweeps the physical error rate across the suite.
func Fig15() []Fig15Row {
	var rows []Fig15Row
	for _, rate := range []float64{1e-3, 1e-4, 1e-5} {
		est := workload.NewEstimator()
		est.PhysRate = rate
		for _, p := range workload.Suite() {
			e := est.Estimate(p)
			rows = append(rows, Fig15Row{
				ErrorRate:    rate,
				Workload:     p.Name,
				Distance:     e.Distance,
				SavingsQuEST: e.SavingsQuEST(),
				SavingsCache: e.SavingsQuESTCache(),
				DistillOv:    e.TFactoryOverhead(),
			})
		}
	}
	return rows
}

// Fig16Row is one bar of Figure 16: MCE throughput per technology and
// syndrome design, at that design's Table 2 memory configuration.
type Fig16Row struct {
	Tech     string
	Schedule string
	Config   jj.MemoryConfig
	Qubits   int
}

// Fig16 evaluates qubits serviced per MCE for the 3×4 operating points.
func Fig16() []Fig16Row {
	var rows []Fig16Row
	for _, tech := range workload.Techs() {
		for _, sched := range surface.Schedules() {
			cfg, err := microcode.OptimalConfig(sched)
			if err != nil {
				panic(err)
			}
			rows = append(rows, Fig16Row{
				Tech:     tech.Name,
				Schedule: sched.Name,
				Config:   cfg,
				Qubits:   microcode.QubitsPerMCEInWindow(sched, cfg, tech.TEcc),
			})
		}
	}
	return rows
}

// Table2Row reproduces one row of Table 2: the microcode design point per
// syndrome.
type Table2Row struct {
	Schedule     string
	Instructions int
	Config       jj.MemoryConfig
	JJs          int
	PowerUW      float64
}

// Table2 derives the optimal microcode configuration per syndrome design.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, sched := range surface.Schedules() {
		cfg, err := microcode.OptimalConfig(sched)
		if err != nil {
			panic(err)
		}
		rows = append(rows, Table2Row{
			Schedule:     sched.Name,
			Instructions: sched.UnitCellInstrs,
			Config:       cfg,
			JJs:          cfg.JJCount(),
			PowerUW:      cfg.PowerMicroWatts(),
		})
	}
	return rows
}

// MachineDemo runs the cycle-level machine end to end — a distillation loop
// replayed from the logical instruction cache on a real simulated substrate
// — and reports the measured (not modelled) bus savings. It grounds the
// analytical experiments in the executable machine.
type MachineDemoResult struct {
	Cycles           int
	LogicalRetired   int
	BaselineBusBytes uint64
	QuESTBusBytes    uint64
	MeasuredSavings  float64
}

// MachineDemo executes the cached distillation loop `times` times.
func MachineDemo(times int) (MachineDemoResult, error) {
	m := NewMachine(DefaultMachineConfig())
	rep, err := m.RunDistillationCached(times, 0)
	if err != nil {
		return MachineDemoResult{}, err
	}
	if !rep.Drained {
		return MachineDemoResult{}, fmt.Errorf("core: machine demo did not drain")
	}
	return MachineDemoResult{
		Cycles:           rep.Cycles,
		LogicalRetired:   rep.LogicalRetired,
		BaselineBusBytes: rep.BaselineBusBytes,
		QuESTBusBytes:    rep.QuESTBusBytes,
		MeasuredSavings:  rep.Savings(),
	}, nil
}

// ---- formatting ----

// FormatTable renders rows of cells as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// RoundInstrs re-exports the distillation round length for reporting.
func RoundInstrs() int { return distill.RoundInstructionCount }

// ExtConcatRow is one row of the §9 concatenation extension study.
type ExtConcatRow struct {
	Levels       int
	InnerQubits  int
	LogicalError float64
	OuterInstrs  int
	Savings      float64
}

// ExtConcat evaluates the hybrid microcode-inner/software-outer split across
// outer Steane levels at a d=13 inner code.
func ExtConcat() []ExtConcatRow {
	const innerPhys = 2112 // 12.5·d² at d=13
	var rows []ExtConcatRow
	for levels := 0; levels <= 3; levels++ {
		s := concat.Scheme{Levels: levels, InnerErrorRate: 1e-9}
		rows = append(rows, ExtConcatRow{
			Levels:       levels,
			InnerQubits:  s.InnerQubitsPerLogical(),
			LogicalError: s.LogicalErrorRate(),
			OuterInstrs:  s.OuterInstrsPerRound(),
			Savings:      s.Savings(innerPhys, 9, 13),
		})
	}
	return rows
}

// DRAMRow is one row of the cryo-DRAM feed analysis (§2.2): whether a
// DDR-class 77K channel can feed each architecture's instruction stream.
type DRAMRow struct {
	Workload         string
	BaselineChannels int
	QuESTUtilization float64
}

// ExtDRAM evaluates the feed analysis across the workload suite.
func ExtDRAM() []DRAMRow {
	store, err := dram.New(dram.Default77K())
	if err != nil {
		panic(err)
	}
	est := workload.NewEstimator()
	var rows []DRAMRow
	for _, p := range workload.Suite() {
		e := est.Estimate(p)
		rows = append(rows, DRAMRow{
			Workload:         p.Name,
			BaselineChannels: store.Feed(e.BaselineBandwidth()).ChannelsNeeded,
			QuESTUtilization: store.Feed(e.QuESTCacheBandwidth()).Utilization,
		})
	}
	return rows
}

// ExperimentSeed is the fixed experiment-level seed all statistical sweeps
// mix their cell parameters into. One constant, published here, so results
// are reproducible run to run; per-cell and per-trial seeds are derived
// from it with mc.Seed, never reused across sweep cells.
const ExperimentSeed uint64 = 0x5eed_c0de_2017

// ThresholdRow is one cell of the logical-failure-rate sweep: the functional
// validation that the QECC substrate actually corrects (not a paper figure,
// but the property the whole instruction stream pays for). WilsonLo/Hi
// bound FailRate at 95% confidence.
type ThresholdRow struct {
	PhysRate           float64
	Distance           int
	FailRate           float64
	WilsonLo, WilsonHi float64
	Trials             int
}

// Threshold sweeps physical error rates and code distances through the full
// decode path: noisy syndrome extraction, d-round space-time windowed
// matching, Pauli-frame verification against ground truth. The noise model
// is noise.Uniform(p) — every location including preparation fails at p,
// the paper's single-rate convention. Cells run on the lane-batched
// Pauli-frame engine (batch.go) at mc.LaneWidth trials per lane; trials fan
// out over `workers` goroutines (<=0 means GOMAXPROCS).
//
// Rows are bit-identical for any worker count and with or without any
// SweepObs hook, because every trial is seeded from (ExperimentSeed, p, d,
// trial) alone. Under a Shard only the owned cells produce rows (in sweep
// order); under CI early stop rows report the effective trial count. The
// error reports a sharding, resume or ledger failure — never a trial-level
// failure, which stays in its row.
func Threshold(rates []float64, distances []int, trials, workers int, obs SweepObs) ([]ThresholdRow, error) {
	return thresholdSweep(rates, distances, trials, workers, obs, batchedThreshold)
}

// thresholdSweep runs the threshold cells in sweep order through the cell
// driver, building each executed cell's trials with engine. Production
// passes batchedThreshold; the tests plug the scalar tableau oracle in here,
// so both engines share every byte of the cell plumbing.
func thresholdSweep(rates []float64, distances []int, trials, workers int, obs SweepObs,
	engine func(d int, p float64) cellEngine) ([]ThresholdRow, error) {
	var rows []ThresholdRow
	for _, p := range rates {
		for _, d := range distances {
			cell := mc.Seed(ExperimentSeed, mc.F64(p), uint64(d))
			name := fmt.Sprintf("threshold p=%g d=%d", p, d)
			res, ran, err := obs.runCell(name, cell, map[string]float64{"p": p, "d": float64(d)},
				trials, workers, func() cellEngine { return engine(d, p) })
			if err != nil {
				return rows, err
			}
			if !ran {
				continue
			}
			rows = append(rows, ThresholdRow{
				PhysRate: p,
				Distance: d,
				FailRate: res.Rate,
				WilsonLo: res.WilsonLo,
				WilsonHi: res.WilsonHi,
				Trials:   res.Trials,
			})
		}
	}
	return rows, nil
}

// MemoryRow is one operating point of the machine-level logical memory
// experiment: unlike Threshold (which drives the decoder directly), this one
// goes through the whole machine — master dispatch, MCE issue, microcode
// replay, local LUT decode, windowed global decode — and measures how often
// a logical |0> held for `rounds` noisy QECC cycles reads back wrong.
type MemoryRow struct {
	PhysRate           float64
	Rounds             int
	Failures           int
	WilsonLo, WilsonHi float64
	Trials             int
}

// FailRate returns the measured logical failure fraction.
func (r MemoryRow) FailRate() float64 { return float64(r.Failures) / float64(r.Trials) }

// MachineMemory runs the end-to-end memory experiment at one operating
// point, one machine trial at a time (lane 1), fanning trials over
// `workers` goroutines (<=0 means GOMAXPROCS). Each trial machine is seeded
// from (ExperimentSeed, physRate, rounds, trial), so the row is
// bit-identical for any worker count and uncorrelated with the Threshold
// sweep's fault patterns. Every SweepObs hook is wired through the full
// machine: each trial machine records metrics, trace spans, defect births
// (MCE histories), matched chains (master decoders) and bus bandwidth into
// trial-private shards merged in trial order. ran=false means the cell
// belongs to another shard and nothing was emitted.
func MachineMemory(physRate float64, rounds, trials, workers int, obs SweepObs) (row MemoryRow, ran bool, err error) {
	cell := mc.Seed(ExperimentSeed, mc.F64(physRate), uint64(rounds), 0x3e3)
	name := fmt.Sprintf("memory p=%g rounds=%d", physRate, rounds)
	res, ran, err := obs.runCell(name, cell, map[string]float64{"p": physRate, "rounds": float64(rounds)},
		trials, workers, func() cellEngine { return memoryEngine(physRate, rounds) })
	if err != nil || !ran {
		return MemoryRow{}, ran, err
	}
	row = MemoryRow{
		PhysRate: physRate,
		Rounds:   rounds,
		Failures: res.Failures,
		WilsonLo: res.WilsonLo,
		WilsonHi: res.WilsonHi,
		Trials:   res.Trials,
	}
	return row, true, res.Err
}

// memoryEngine builds the machine trial of one memory cell, one trial per
// lane.
func memoryEngine(physRate float64, rounds int) cellEngine {
	// Every trial machine is shaped by DefaultMachineConfig with one patch
	// per tile; its heat grid is exactly that lattice.
	mt := &memoryTrial{physRate: physRate, rounds: rounds,
		lat: compiler.NewLayout(DefaultMachineConfig().Distance, 1).Lat}
	return cellEngine{lane: 1, rows: mt.lat.Rows, cols: mt.lat.Cols,
		fn: func(start int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			out[0] = mt.run(start, seeds[0], ctx)
		}}
}

// memoryTrial is one memory cell's machine trial. Trials pool machines:
// every trial of the cell uses the identical machine shape (only the seed
// and the observation hooks vary), so the expensive trial-independent
// construction — microcode stores, decoder lookup tables, tableau storage —
// is paid roughly once per worker and Reset rewinds the rest. Reset-vs-fresh
// equality is pinned by TestMachineResetMatchesFresh; worker-count
// independence of the pooled results by TestMachineMemoryObservedDeterminism.
type memoryTrial struct {
	physRate float64
	rounds   int
	lat      surface.Lattice
	pool     sync.Pool
}

// run executes one trial: prepare |0>, idle for the cell's rounds, measure
// Z, and fail on a nonzero result.
func (mt *memoryTrial) run(trial int, seed uint64, ctx mc.BatchCtx) mc.Outcome {
	var heat *heatmap.Collector
	if ctx.Heat != nil {
		heat = ctx.Heat[0]
	}
	var bw *bwprofile.Recorder
	if ctx.BW != nil {
		bw = ctx.BW[0]
	}
	// The machine records into a trial-private set; its (single) grid is
	// folded into the trial's engine shard at the end, so the merged heatmap
	// stays worker-count independent.
	var hs *heatmap.Set
	if heat != nil {
		hs = heatmap.NewSet()
	}
	probes := probe.Probes{Metrics: ctx.Shard, Tracer: ctx.Trace, Heat: hs, BW: bw}
	var m *Machine
	if v := mt.pool.Get(); v != nil {
		m = v.(*Machine)
		m.reset(int64(seed), probes)
	} else {
		cfg := DefaultMachineConfig()
		cfg.PatchesPerTile = 1
		cfg.Seed = int64(seed)
		cfg.DecodeWindow = cfg.Distance
		cfg.Probes = probes
		if mt.physRate > 0 {
			nm := noise.Uniform(mt.physRate)
			cfg.Noise = &nm
		}
		m = NewMachine(cfg)
	}
	defer mt.pool.Put(m)
	mm := m.Master()
	mm.StepCycle()
	if err := mm.Dispatch(0, isa.LogicalInstr{Op: isa.LPrep0, Target: 0}); err != nil {
		return mc.Outcome{Err: err}
	}
	for c := 0; c < mt.rounds; c++ {
		mm.StepCycle()
	}
	if err := mm.Dispatch(0, isa.LogicalInstr{Op: isa.LMeasZ, Target: 0}); err != nil {
		return mc.Outcome{Err: err}
	}
	reps, ok := mm.RunUntilDrained(mt.rounds + 50)
	if !ok {
		return mc.Outcome{Err: fmt.Errorf("core: memory trial %d did not drain", trial)}
	}
	got := -1
	for _, r := range reps {
		for _, res := range r.Results {
			got = res.Bit
		}
	}
	// hs and heat are non-nil together; the conjunction names both
	// receivers, which is the form the nil-gating contract (gateflow) can
	// prove.
	if hs != nil && heat != nil {
		heat.Merge(hs.Collector(heatmap.GridName(mt.lat.Rows, mt.lat.Cols), mt.lat.Rows, mt.lat.Cols))
	}
	return mc.Outcome{Fail: got != 0}
}

// SyndromeRow compares upstream decode traffic against downstream
// instruction traffic on the running machine — the two classes sharing the
// global bus (§4.2). Instruction traffic is error-rate independent;
// syndrome traffic grows with the error rate.
type SyndromeRow struct {
	PhysRate         float64
	Cycles           int
	InstructionBytes uint64
	SyndromeBytes    uint64
}

// ExtSyndromeTraffic runs an idle noisy machine (QECC only) at several
// rates and meters both traffic classes.
func ExtSyndromeTraffic(rates []float64, cycles int) []SyndromeRow {
	var rows []SyndromeRow
	for _, rate := range rates {
		cfg := DefaultMachineConfig()
		cfg.Seed = 99
		if rate > 0 {
			nm := noise.Uniform(rate)
			cfg.Noise = &nm
		}
		m := NewMachine(cfg)
		for c := 0; c < cycles; c++ {
			m.Master().StepCycle()
		}
		rows = append(rows, SyndromeRow{
			PhysRate:         rate,
			Cycles:           cycles,
			InstructionBytes: m.Master().InstructionBusBytes(),
			SyndromeBytes:    m.Master().Syndrome.Bytes(),
		})
	}
	return rows
}
