// Package core assembles the complete QuEST machine — master controller,
// MCE array, microcode stores, execution units and the stabilizer substrate
// — and measures the quantity the paper is about: global instruction-bus
// traffic under the three architectures (software-managed baseline, QuEST
// with hardware QECC, QuEST with the logical instruction cache).
//
// A single execution serves all three measurements: by the stream-equivalence
// invariant (tested throughout this repository), the baseline design
// executes the same physical µop sequence the MCEs replay from microcode, so
// its bus cost equals the µops issued at one byte each, while QuEST's bus
// cost is what actually crossed the master→MCE network. The package also
// hosts the experiment drivers that regenerate every figure and table of the
// paper's evaluation (see experiments.go).
package core

import (
	"fmt"

	"quest/internal/awg"
	"quest/internal/bwprofile"
	"quest/internal/compiler"
	"quest/internal/distill"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/master"
	"quest/internal/mce"
	"quest/internal/metrics"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/probe"
	"quest/internal/qexe"
	"quest/internal/surface"
	"quest/internal/tracing"
)

// MachineConfig sizes a cycle-level machine.
type MachineConfig struct {
	Tiles           int
	PatchesPerTile  int
	Distance        int
	Design          microcode.Design
	Schedule        surface.Schedule
	Noise           *noise.Model
	Seed            int64
	PacketsPerCycle int
	Factories       int
	FactoryLatency  int
	CacheSlots      int
	// Timing, when non-nil, enables wall-clock accounting on every tile.
	Timing *awg.Timing
	// UseNoC routes master→MCE packets through the 2-D mesh model.
	UseNoC bool
	// DecodeWindow batches global decoding over this many rounds (≤1 =
	// per-round).
	DecodeWindow int
	// UseUnionFind selects the union-find global matcher.
	UseUnionFind bool
	// Probes are the observers every component of this machine binds: the
	// MCE tiles, the master, its global decoders and decode windows, and the
	// network. Monte-Carlo trials pass per-worker metrics shards and
	// per-trial heat and bandwidth shards.
	probe.Probes
}

// DefaultMachineConfig returns a small but fully functional machine: one
// tile of two distance-3 patches on a unit-cell microcode with two
// T-factories.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{
		Tiles:           1,
		PatchesPerTile:  2,
		Distance:        3,
		Design:          microcode.DesignUnitCell,
		Schedule:        surface.Steane,
		Seed:            1,
		PacketsPerCycle: 8,
		Factories:       2,
		FactoryLatency:  4,
		CacheSlots:      8,
	}
}

// Machine is the end-to-end cycle simulator.
type Machine struct {
	cfg MachineConfig
	m   *master.Master
}

// NewMachine builds the machine.
func NewMachine(cfg MachineConfig) *Machine {
	if cfg.Tiles < 1 || cfg.PatchesPerTile < 1 {
		panic(fmt.Sprintf("core: invalid machine shape %d tiles × %d patches", cfg.Tiles, cfg.PatchesPerTile))
	}
	var tiles []*mce.MCE
	for i := 0; i < cfg.Tiles; i++ {
		tiles = append(tiles, mce.New(mce.Config{
			Design:     cfg.Design,
			Schedule:   cfg.Schedule,
			Layout:     compiler.NewLayout(cfg.Distance, cfg.PatchesPerTile),
			Noise:      cfg.Noise,
			Seed:       cfg.Seed + int64(i),
			CacheSlots: cfg.CacheSlots,
			Timing:     cfg.Timing,
			TileID:     i,
			Probes:     cfg.Probes,
		}))
	}
	return &Machine{
		cfg: cfg,
		m: master.New(master.Config{
			PacketsPerCycle: cfg.PacketsPerCycle,
			Factories:       cfg.Factories,
			FactoryLatency:  cfg.FactoryLatency,
			UseNoC:          cfg.UseNoC,
			DecodeWindow:    cfg.DecodeWindow,
			UseUnionFind:    cfg.UseUnionFind,
			Probes:          cfg.Probes,
		}, tiles),
	}
}

// Master exposes the controller for direct driving.
func (ma *Machine) Master() *master.Master { return ma.m }

// Reset rewinds the machine to the state NewMachine built, with a new base
// seed and freshly bound observers. All trial-independent structure
// (microcode stores, decoder lookup tables, tableau storage, layouts) is
// kept; every piece of mutable state — substrate, masks, frames, queues,
// factories, counters — is restored through the same per-component Reset
// that construction ends in, so a Reset machine is observationally
// identical to NewMachine with the same config (pinned by
// TestMachineResetMatchesFresh). Monte-Carlo trial bodies pool machines on
// this: per-trial cost drops from full machine construction to a reset.
// Panics for NoC-routed machines, whose mesh has no drain guarantee.
func (ma *Machine) Reset(seed int64, reg *metrics.Registry, tr *tracing.Tracer, heat *heatmap.Set, bw *bwprofile.Recorder) {
	ma.reset(seed, probe.Probes{Metrics: reg, Tracer: tr, Heat: heat, BW: bw})
}

// reset is Reset with the observers as one bundle.
func (ma *Machine) reset(seed int64, p probe.Probes) {
	for i, t := range ma.m.Tiles() {
		t.Reset(seed+int64(i), p)
	}
	ma.m.Reset(p)
}

// tileFor maps a program's logical qubit to (tile, patch-within-tile).
func (ma *Machine) tileFor(q int) (tile, patch int, err error) {
	tile = q / ma.cfg.PatchesPerTile
	patch = q % ma.cfg.PatchesPerTile
	if tile >= ma.cfg.Tiles {
		return 0, 0, fmt.Errorf("core: logical qubit %d exceeds machine capacity %d",
			q, ma.cfg.Tiles*ma.cfg.PatchesPerTile)
	}
	return tile, patch, nil
}

// RunReport summarizes a program execution under all three bus-accounting
// models.
type RunReport struct {
	Cycles         int
	LogicalRetired int
	// BaselineBusBytes is what the software-managed design would have
	// shipped: every physical µop at one byte.
	BaselineBusBytes uint64
	// QuESTBusBytes is the metered master→MCE instruction traffic.
	QuESTBusBytes uint64
	// SyndromeBytes is the upstream decode traffic (common to all designs).
	SyndromeBytes uint64
	Results       []mce.LogicalResult
	Drained       bool
}

// Savings returns the measured bandwidth-reduction factor.
func (r RunReport) Savings() float64 {
	if r.QuESTBusBytes == 0 {
		return 0
	}
	return float64(r.BaselineBusBytes) / float64(r.QuESTBusBytes)
}

// RunProgram dispatches a logical program (CNOTs must pair qubits on the
// same tile) and runs the machine until it drains.
func (ma *Machine) RunProgram(p *compiler.Program, maxCycles int) (RunReport, error) {
	if err := p.Validate(); err != nil {
		return RunReport{}, err
	}
	if maxCycles <= 0 {
		maxCycles = 10_000
	}
	// A settle cycle projects the lattices before work arrives.
	ma.m.StepCycle()
	for _, in := range p.Instrs {
		tile, patch, err := ma.tileFor(int(in.Target))
		if err != nil {
			return RunReport{}, err
		}
		mapped := in
		mapped.Target = uint8(patch)
		if in.Op == isa.LCNOT {
			tile2, patch2, err := ma.tileFor(int(in.Arg))
			if err != nil {
				return RunReport{}, err
			}
			if tile2 != tile {
				return RunReport{}, fmt.Errorf("core: cross-tile CNOT %d,%d not supported", in.Target, in.Arg)
			}
			mapped.Arg = uint8(patch2)
		}
		if err := ma.m.Dispatch(tile, mapped); err != nil {
			return RunReport{}, err
		}
	}
	reps, drained := ma.m.RunUntilDrained(maxCycles)
	var rep RunReport
	rep.Drained = drained
	for _, r := range reps {
		rep.Cycles++
		rep.LogicalRetired += r.LogicalRetired
		rep.BaselineBusBytes += uint64(r.MicroOps) // 1 byte per physical µop
		rep.Results = append(rep.Results, r.Results...)
	}
	rep.QuESTBusBytes = ma.m.InstructionBusBytes()
	rep.SyndromeBytes = ma.m.Syndrome.Bytes()
	return rep, nil
}

// RunExecutable loads a quantum executable (the §2.2 offload format): cache
// sections are staged into every tile's instruction cache (their bus cost
// metered once), then the program section is dispatched and run to drain.
func (ma *Machine) RunExecutable(exe *qexe.Executable, maxCycles int) (RunReport, error) {
	if err := exe.Validate(); err != nil {
		return RunReport{}, err
	}
	ma.m.StepCycle()
	for _, cb := range exe.Caches {
		for tile := range ma.m.Tiles() {
			if err := ma.m.LoadCache(tile, cb.Slot, cb.Body); err != nil {
				return RunReport{}, fmt.Errorf("core: staging cache slot %d: %w", cb.Slot, err)
			}
		}
	}
	p, err := exe.ToProgram()
	if err != nil {
		return RunReport{}, err
	}
	return ma.RunProgram(p, maxCycles)
}

// RunDistillationCached stages one distillation round body in every tile's
// cache and replays it `times` per tile — the §5.3 experiment in executable
// form. The returned report's QuEST bytes include the one-time load plus the
// batched run tokens; its baseline bytes are the full per-µop cost.
func (ma *Machine) RunDistillationCached(times, maxCycles int) (RunReport, error) {
	if times < 1 {
		return RunReport{}, fmt.Errorf("core: non-positive replay count %d", times)
	}
	body := tileLocalBody(ma.cfg.PatchesPerTile)
	ma.m.StepCycle()
	for tile := range ma.m.Tiles() {
		if err := ma.m.LoadCache(tile, 0, body); err != nil {
			return RunReport{}, err
		}
		remaining := times
		for remaining > 0 {
			batch := remaining
			if batch > 63 {
				batch = 63
			}
			if err := ma.m.RunCached(tile, 0, batch); err != nil {
				return RunReport{}, err
			}
			remaining -= batch
		}
	}
	if maxCycles <= 0 {
		maxCycles = 200_000
	}
	reps, drained := ma.m.RunUntilDrained(maxCycles)
	var rep RunReport
	rep.Drained = drained
	for _, r := range reps {
		rep.Cycles++
		rep.LogicalRetired += r.LogicalRetired
		rep.BaselineBusBytes += uint64(r.MicroOps)
	}
	rep.QuESTBusBytes = ma.m.InstructionBusBytes()
	rep.SyndromeBytes = ma.m.Syndrome.Bytes()
	return rep, nil
}

// tileLocalBody projects the distillation round circuit onto a tile with
// few patches: targets fold onto the available patches and magic-state
// consumers (T) become frame-level Paulis so the demo machine can retire the
// loop without a full 16-patch factory tile. The instruction count and
// cadence — what the cache experiment measures — are preserved.
func tileLocalBody(patches int) []isa.LogicalInstr {
	var body []isa.LogicalInstr
	for _, in := range distill.RoundCircuit() {
		mapped := isa.LogicalInstr{Op: in.Op, Target: in.Target % uint8(patches), Arg: in.Arg % uint8(patches)}
		switch in.Op {
		case isa.LT, isa.LH, isa.LS, isa.LPrepPlus, isa.LPrep0, isa.LMeasX, isa.LMeasZ:
			// Keep single-patch cadence but use frame-level Paulis so the
			// loop is self-contained.
			mapped = isa.LogicalInstr{Op: isa.LX, Target: mapped.Target}
		case isa.LCNOT:
			if mapped.Target == mapped.Arg {
				mapped = isa.LogicalInstr{Op: isa.LZ, Target: mapped.Target}
			}
		}
		body = append(body, mapped)
	}
	return body
}
