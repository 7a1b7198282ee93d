// Package microcode implements the MCE microcode memory of §4.4–4.5: the
// three storage organizations the paper compares (conventional RAM with
// opcode+address µops, address-free FIFO, and the constant-size unit-cell
// replay table), their capacity and bandwidth scaling laws, the solver that
// computes how many qubits one MCE can service under a memory configuration,
// and the streaming Store that actually replays QECC instruction cycles for
// the cycle-level machine simulation.
package microcode

import (
	"fmt"
	"math"

	"quest/internal/isa"
	"quest/internal/jj"
	"quest/internal/surface"
)

// Design selects the microcode memory organization.
type Design int

// The three organizations of Figures 10 and 11.
const (
	// DesignRAM is the baseline: each µop stores opcode plus a qubit
	// address, capacity O(N·log₂N).
	DesignRAM Design = iota
	// DesignFIFO drops the address bits — lock-step delivery makes the
	// qubit order implicit — so capacity scales O(N).
	DesignFIFO
	// DesignUnitCell stores only the spatially repeating unit-cell pattern
	// and regenerates the full stream with a replay state machine: O(1)
	// capacity.
	DesignUnitCell
)

// String names the design as in the paper's figures.
func (d Design) String() string {
	switch d {
	case DesignRAM:
		return "RAM"
	case DesignFIFO:
		return "FIFO"
	case DesignUnitCell:
		return "Unit-cell"
	}
	return fmt.Sprintf("design(%d)", int(d))
}

// Designs lists the organizations in presentation order.
func Designs() []Design { return []Design{DesignRAM, DesignFIFO, DesignUnitCell} }

// MicroOpBits returns the stored size of one µop for n serviced qubits.
func MicroOpBits(d Design, n int) int {
	if d == DesignRAM {
		return isa.RAMOpBits(n)
	}
	return isa.FIFOOpBits()
}

// CapacityBits returns the microcode capacity required to hold one full QECC
// cycle for n qubits under the given design and schedule — the scaling law
// of Figure 10 (RAM: O(N·log₂N); FIFO: O(N); unit cell: O(1)).
func CapacityBits(d Design, sched surface.Schedule, n int) int {
	if n < 0 {
		panic(fmt.Sprintf("microcode: negative qubit count %d", n))
	}
	switch d {
	case DesignRAM:
		return n * sched.Depth * isa.RAMOpBits(n)
	case DesignFIFO:
		return n * sched.Depth * isa.FIFOOpBits()
	case DesignUnitCell:
		return sched.UnitCellInstrs * isa.OpcodeBits
	}
	panic(fmt.Sprintf("microcode: unknown design %d", int(d)))
}

// MaxQubitsByCapacity returns the largest qubit count whose QECC cycle fits
// in capBits under the design. For the unit-cell design the capacity bound
// is infinite once the table fits; the boolean reports whether it fits at
// all.
func MaxQubitsByCapacity(d Design, sched surface.Schedule, capBits int) (n int, fits bool) {
	if d == DesignUnitCell {
		if CapacityBits(d, sched, 0) <= capBits {
			return math.MaxInt32, true
		}
		return 0, false
	}
	// CapacityBits is monotone in n: binary search.
	lo, hi := 0, 1
	for CapacityBits(d, sched, hi) <= capBits {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if CapacityBits(d, sched, mid) <= capBits {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, lo > 0
}

// RowBits is the width of one memory access: each read returns a 64-bit row
// that packs multiple µops (16 four-bit opcodes, or 6 ten-bit RAM µops).
const RowBits = 64

// InstructionWindowNs is the default sub-cycle duration: the ~10 ns physical
// instruction latency of §4.5 during which the microcode must deliver one
// µop to every serviced qubit.
const InstructionWindowNs = 10.0

// MaxQubitsByBandwidth returns how many qubits the memory configuration can
// stream one µop each within a sub-cycle window of windowNs. Smaller banks
// read faster and more channels read in parallel, which is why the unit-cell
// design converts capacity savings into throughput (§4.5).
func MaxQubitsByBandwidth(d Design, cfg jj.MemoryConfig, windowNs float64, servicedHint int) int {
	opBits := MicroOpBits(d, maxInt(servicedHint, 2))
	opsPerRow := RowBits / opBits
	cycles := windowNs * jj.ClockHz / 1e9
	return int(cfg.ReadsPerCycle() * cycles * float64(opsPerRow))
}

// QubitsServiced returns the number of qubits one MCE services under the
// given design, schedule and memory configuration: the tighter of the
// capacity and bandwidth limits (Figure 11).
func QubitsServiced(d Design, sched surface.Schedule, cfg jj.MemoryConfig, windowNs float64) int {
	byCap, fits := MaxQubitsByCapacity(d, sched, cfg.TotalBits())
	if !fits {
		return 0
	}
	// Bandwidth limit depends (for RAM) on the µop width, which depends on
	// the serviced count; one fixed-point pass with the capacity bound as
	// hint suffices because capacity binds long before address width moves.
	byBW := MaxQubitsByBandwidth(d, cfg, windowNs, byCap)
	return minInt(byCap, byBW)
}

// QubitsPerMCEInWindow returns the MCE throughput when an entire QECC cycle
// (sched.Depth sub-cycles) must stream within a total window of teccNs — the
// Figure 16 experiment, where the window is the technology's error
// correction round time T_ecc.
func QubitsPerMCEInWindow(sched surface.Schedule, cfg jj.MemoryConfig, teccNs float64) int {
	perSub := teccNs / float64(sched.Depth)
	return MaxQubitsByBandwidth(DesignUnitCell, cfg, perSub, 0)
}

// OptimalConfig picks the microcode memory configuration for a syndrome
// design from the fixed-budget candidates: the highest-bandwidth
// configuration whose per-bank capacity still holds the full unit-cell µop
// table (the replay state machine reads its whole table from one bank, so
// the table cannot straddle banks). Among feasible configurations it prefers
// more channels (more qubits per MCE), matching the paper's Table 2
// methodology.
func OptimalConfig(sched surface.Schedule) (jj.MemoryConfig, error) {
	tableBits := CapacityBits(DesignUnitCell, sched, 0)
	var best jj.MemoryConfig
	found := false
	for _, cfg := range jj.Configs4Kb() {
		if cfg.BankBits < tableBits {
			continue
		}
		if !found || cfg.Channels > best.Channels {
			best = cfg
			found = true
		}
	}
	if !found {
		return jj.MemoryConfig{}, fmt.Errorf("microcode: unit-cell table (%d bits) exceeds every 4Kb bank option", tableBits)
	}
	return best, nil
}

// Store is the MCE's microcode memory content for one tile: the QECC-µop
// program in one of the three organizations, replayable against the mask
// table every cycle. It also meters the bits streamed out of the memory so
// experiments can audit internal microcode bandwidth.
type Store struct {
	design Design
	sched  surface.Schedule
	lat    surface.Lattice

	// words is the unmasked compiled cycle (RAM and FIFO designs).
	words []isa.VLIW
	// cell replays the unit-cell table (unit-cell design).
	cell *surface.CellExpander

	// out is the stream last replayed, for the mask outMask at version
	// outVersion; valid is false until the first replay.
	out        []isa.VLIW
	outMask    *surface.Mask
	outVersion uint64
	valid      bool

	bitsStreamed uint64
}

// NewStore programs a microcode store for the tile. This is the one-time
// "load the microcode" operation the master controller performs; afterwards
// the MCE replays autonomously.
func NewStore(d Design, sched surface.Schedule, lat surface.Lattice) *Store {
	s := &Store{design: d, sched: sched, lat: lat}
	switch d {
	case DesignRAM, DesignFIFO:
		s.words = surface.CompileCycle(lat, sched, nil)
	case DesignUnitCell:
		s.cell = surface.BuildCellTable(sched).Expander(lat)
	default:
		panic(fmt.Sprintf("microcode: unknown design %d", int(d)))
	}
	s.out = make([]isa.VLIW, sched.Depth)
	for i := range s.out {
		s.out[i] = isa.NewVLIW(lat.NumQubits())
	}
	return s
}

// Design returns the store's organization.
func (s *Store) Design() Design { return s.design }

// Schedule returns the programmed syndrome schedule.
func (s *Store) Schedule() surface.Schedule { return s.sched }

// Lattice returns the tile the store is programmed for.
func (s *Store) Lattice() surface.Lattice { return s.lat }

// CapacityBits returns the storage the programmed content occupies.
func (s *Store) CapacityBits() int {
	return CapacityBits(s.design, s.sched, s.lat.NumQubits())
}

// BitsStreamed returns the cumulative bits read out of the microcode memory.
func (s *Store) BitsStreamed() uint64 { return s.bitsStreamed }

// ResetStreamed zeroes the streamed-bits meter. The programmed content — the
// expensive part of NewStore — is immutable, so a pooled MCE resets only this
// counter to make the store indistinguishable from a freshly programmed one.
func (s *Store) ResetStreamed() { s.bitsStreamed = 0 }

// ReplayCycle produces the QECC cycle's VLIW stream for the current mask.
// All three designs produce the identical stream (the architecture changes
// where instructions are stored, never what executes); they differ in the
// bits streamed per cycle and in capacity. Every call meters a full cycle's
// bits, but the stream is re-expanded only when mask is another object than
// last time or its Version has moved: the mask changes only on logical work,
// so most cycles replay the words already built. The returned words belong
// to the store: they are read-only and valid until the next ReplayCycle.
func (s *Store) ReplayCycle(mask *surface.Mask) []isa.VLIW {
	n := s.lat.NumQubits()
	opBits := MicroOpBits(s.design, n)
	s.bitsStreamed += uint64(n * s.sched.Depth * opBits)
	var version uint64
	if mask != nil {
		version = mask.Version()
	}
	if s.valid && mask == s.outMask && version == s.outVersion {
		return s.out
	}
	s.outMask, s.outVersion, s.valid = mask, version, true
	if s.design == DesignUnitCell {
		s.cell.ExpandInto(s.out, mask)
		return s.out
	}
	// RAM/FIFO: gate the stored unmasked program through the mask table.
	for i, w := range s.words {
		gateWord(s.out[i], w, mask)
	}
	return s.out
}

// gateWord writes w into dst under mask gating: masked qubits idle, and any
// µop paired with a masked qubit idles too (its partner has been silenced).
func gateWord(dst, w isa.VLIW, mask *surface.Mask) {
	copy(dst.Ops, w.Ops)
	copy(dst.Pairs, w.Pairs)
	if mask == nil {
		return
	}
	for q, op := range dst.Ops {
		if mask.Disabled(q) || op.IsTwoQubit() && mask.Disabled(dst.Pairs[q]) {
			dst.Set(q, isa.OpIdle)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
