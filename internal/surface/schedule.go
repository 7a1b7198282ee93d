package surface

import (
	"fmt"

	"quest/internal/isa"
)

// Schedule describes a syndrome-generation design. Depth is the number of
// lock-step sub-cycles (physical instructions per qubit) in one QECC cycle —
// the paper's "9 to 14 instructions". UnitCellInstrs is the total µop count
// the microcode must hold for one unit cell under the unit-cell replay
// optimization (the paper's Table 2 values). The four designs evaluated in
// the paper are provided as package constants.
type Schedule struct {
	Name           string
	Depth          int
	UnitCellInstrs int
	// UnitCellSide is the qubit count of the design's repeating block, used
	// for reporting (Steane/Shor use the 25-qubit cell; SC-17 and SC-13 are
	// the optimized 17- and 13-qubit codes of Tomita & Svore).
	UnitCellQubits int
}

// The four syndrome designs of the paper's evaluation (Table 2 and §7).
var (
	// Steane is the Steane-style extraction: 9 instructions per qubit per
	// QECC cycle.
	Steane = Schedule{Name: "Steane", Depth: 9, UnitCellInstrs: 148, UnitCellQubits: 25}
	// Shor is the Shor-style (cat-state) extraction: 14 instructions per
	// qubit per cycle.
	Shor = Schedule{Name: "Shor", Depth: 14, UnitCellInstrs: 300, UnitCellQubits: 25}
	// SC17 is the 17-qubit optimized code of Tomita & Svore.
	SC17 = Schedule{Name: "SC-17", Depth: 8, UnitCellInstrs: 136, UnitCellQubits: 17}
	// SC13 is the 13-qubit optimized code.
	SC13 = Schedule{Name: "SC-13", Depth: 11, UnitCellInstrs: 147, UnitCellQubits: 13}
)

// Schedules lists the paper's four designs in presentation order.
func Schedules() []Schedule { return []Schedule{Steane, Shor, SC17, SC13} }

// Validate checks the descriptor's internal consistency.
func (s Schedule) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("surface: schedule with empty name")
	}
	if s.Depth < activeDepth {
		return fmt.Errorf("surface: schedule %s depth %d below functional minimum %d", s.Name, s.Depth, activeDepth)
	}
	if s.UnitCellInstrs <= 0 || s.UnitCellQubits <= 0 {
		return fmt.Errorf("surface: schedule %s has non-positive unit cell sizing", s.Name)
	}
	return nil
}

// activeDepth is the number of sub-cycles that carry non-idle work in the
// functional extraction circuit: prep, four CNOT rounds, measure. Schedules
// with larger Depth pad the remainder with explicit idles, modelling the
// extra verification steps of the longer designs while keeping the measured
// stabilizers identical.
const activeDepth = 6

// Sub-cycle indices of the functional circuit.
const (
	stepPrep  = 0
	stepMeas  = activeDepth - 1
	firstCNOT = 1
)

// cnotDirOrder returns the direction sequence (indices into the lattice's
// N,E,W,S order) for the four CNOT sub-cycles of each ancilla type. X and Z
// ancillas interleave in the "zig/zag" pattern (N,W,E,S vs N,E,W,S) so that
// simultaneously measured X- and Z-stabilizers commute through the shared
// data qubits.
func cnotDirOrder(role Role) [4]int {
	if role == RoleAncillaX {
		return [4]int{0, 2, 1, 3} // N, W, E, S
	}
	return [4]int{0, 1, 2, 3} // N, E, W, S
}

// CompileCycle compiles one complete QECC cycle for the lattice under the
// given mask into schedule.Depth lock-step VLIW words. Every qubit receives
// exactly one µop per sub-cycle; masked qubits and data qubits with no CNOT
// partner in a sub-cycle receive explicit idles. This is the instruction
// stream a software-managed baseline must push through the control processor
// every cycle, and exactly what a QuEST MCE replays from microcode instead.
func CompileCycle(lat Lattice, sched Schedule, mask *Mask) []isa.VLIW {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	words := make([]isa.VLIW, sched.Depth)
	for s := range words {
		words[s] = isa.NewVLIW(lat.NumQubits())
	}
	masked := func(i int) bool { return mask != nil && mask.Disabled(i) }

	for i := 0; i < lat.NumQubits(); i++ {
		if masked(i) {
			continue // stays Idle in every sub-cycle
		}
		r, c := lat.Coord(i)
		role := lat.RoleAt(r, c)
		if role == RoleData {
			continue // data µops are set by their ancilla's CNOT below
		}
		// Prep and measurement sub-cycles.
		if role == RoleAncillaX {
			words[stepPrep].Set(i, isa.OpPrepPlus)
			words[stepMeas].Set(i, isa.OpMeasX)
		} else {
			words[stepPrep].Set(i, isa.OpPrep0)
			words[stepMeas].Set(i, isa.OpMeasZ)
		}
		// Four CNOT sub-cycles.
		order := cnotDirOrder(role)
		for k := 0; k < 4; k++ {
			step := firstCNOT + k
			n := lat.Neighbor(r, c, order[k])
			if n < 0 || masked(n) {
				continue // boundary or masked partner: both stay idle
			}
			if role == RoleAncillaX {
				// X-syndrome: ancilla is control, data is target.
				words[step].SetPair(i, isa.OpCNOTControl, n)
				words[step].SetPair(n, isa.OpCNOTTarget, i)
			} else {
				// Z-syndrome: data is control, ancilla is target.
				words[step].SetPair(n, isa.OpCNOTControl, i)
				words[step].SetPair(i, isa.OpCNOTTarget, n)
			}
		}
	}
	return words
}

// cellKey packs a unit-cell pattern entry's identity into an index of the
// table: the site parity class plus the boundary/mask signature of the four
// neighbors. Bit 6 is the row parity, bit 5 the column parity, bits 1–4 the
// neighborAbsent signature (bit k set means the N,E,W,S neighbor k is
// off-lattice or masked, selecting the boundary variant of the entry) and
// bit 0 whether the site itself is masked. The microcode's replay state
// machine regenerates the full-lattice stream from this table — the paper's
// unit-cell optimization — so its size is O(1) in the lattice size.
func cellKey(rowParity, colParity int, neighborAbsent uint8, selfMasked bool) int {
	k := rowParity<<6 | colParity<<5 | int(neighborAbsent)<<1
	if selfMasked {
		k |= 1
	}
	return k
}

// numCellKeys is the number of distinct cellKey values.
const numCellKeys = 1 << 7

// CellTable is the unit-cell microcode content: for each pattern entry, the
// µop sequence over the schedule's sub-cycles. Entries reference neighbors by
// direction rather than absolute address, which is what lets the table stay
// constant-size.
type CellTable struct {
	sched   Schedule
	entries [numCellKeys][]cellOp
}

type cellOp struct {
	op  isa.Opcode
	dir int // neighbor direction for two-qubit ops, -1 otherwise
}

// BuildCellTable constructs the unit-cell pattern table for a schedule. The
// table is lattice-independent: it enumerates the parity classes and
// neighbor signatures once.
func BuildCellTable(sched Schedule) *CellTable {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	t := &CellTable{sched: sched}
	for k := range t.entries {
		t.entries[k] = t.build(k>>6&1, k>>5&1, uint8(k>>1&15), k&1 == 1)
	}
	return t
}

func (t *CellTable) build(rowParity, colParity int, neighborAbsent uint8, selfMasked bool) []cellOp {
	ops := make([]cellOp, t.sched.Depth)
	for i := range ops {
		ops[i] = cellOp{op: isa.OpIdle, dir: -1}
	}
	if selfMasked {
		return ops
	}
	var role Role
	switch {
	case (rowParity+colParity)%2 == 0:
		role = RoleData
	case rowParity == 0:
		role = RoleAncillaX
	default:
		role = RoleAncillaZ
	}
	if role == RoleData {
		// Data qubits participate in up to four CNOTs, one per present
		// ancilla neighbor, at the sub-cycle that ancilla's schedule dictates.
		// The neighbor in direction dir is an ancilla whose own direction
		// back to this data qubit is the opposite direction.
		for dir := 0; dir < 4; dir++ {
			if neighborAbsent&(1<<dir) != 0 {
				continue
			}
			// Ancilla role depends on its row parity: moving N/S flips row
			// parity, E/W keeps it.
			ancRowParity := rowParity
			if dir == 0 || dir == 3 {
				ancRowParity ^= 1
			}
			var ancRole Role
			if ancRowParity == 0 {
				ancRole = RoleAncillaX
			} else {
				ancRole = RoleAncillaZ
			}
			order := cnotDirOrder(ancRole)
			back := opposite(dir)
			for kk := 0; kk < 4; kk++ {
				if order[kk] != back {
					continue
				}
				step := firstCNOT + kk
				if ancRole == RoleAncillaX {
					ops[step] = cellOp{op: isa.OpCNOTTarget, dir: dir}
				} else {
					ops[step] = cellOp{op: isa.OpCNOTControl, dir: dir}
				}
			}
		}
		return ops
	}
	// Ancilla entries.
	if role == RoleAncillaX {
		ops[stepPrep] = cellOp{op: isa.OpPrepPlus, dir: -1}
		ops[stepMeas] = cellOp{op: isa.OpMeasX, dir: -1}
	} else {
		ops[stepPrep] = cellOp{op: isa.OpPrep0, dir: -1}
		ops[stepMeas] = cellOp{op: isa.OpMeasZ, dir: -1}
	}
	order := cnotDirOrder(role)
	for kk := 0; kk < 4; kk++ {
		dir := order[kk]
		if neighborAbsent&(1<<dir) != 0 {
			continue
		}
		step := firstCNOT + kk
		if role == RoleAncillaX {
			ops[step] = cellOp{op: isa.OpCNOTControl, dir: dir}
		} else {
			ops[step] = cellOp{op: isa.OpCNOTTarget, dir: dir}
		}
	}
	return ops
}

func opposite(dir int) int {
	switch dir {
	case 0:
		return 3
	case 3:
		return 0
	case 1:
		return 2
	default:
		return 1
	}
}

// NumEntries returns the number of pattern entries stored in the table.
func (t *CellTable) NumEntries() int { return len(t.entries) }

// Schedule returns the schedule the table was built for.
func (t *CellTable) Schedule() Schedule { return t.sched }

// Expand replays the unit-cell table across a full lattice under a mask into
// freshly allocated words; see CellExpander.
func (t *CellTable) Expand(lat Lattice, mask *Mask) []isa.VLIW {
	words := make([]isa.VLIW, t.sched.Depth)
	for s := range words {
		words[s] = isa.NewVLIW(lat.NumQubits())
	}
	t.Expander(lat).ExpandInto(words, mask)
	return words
}

// CellExpander replays one CellTable across one lattice. It models the MCE's
// replay state machine; by construction (verified by tests) its stream is
// identical to CompileCycle's direct compilation.
type CellExpander struct {
	table *CellTable
	lat   Lattice
	nbr   [][4]int // each site's N, E, W and S neighbor, -1 off the patch
}

// Expander returns the table's replay state machine for lat, with each
// site's neighbors looked up once.
func (t *CellTable) Expander(lat Lattice) *CellExpander {
	e := &CellExpander{table: t, lat: lat, nbr: make([][4]int, lat.NumQubits())}
	for i := range e.nbr {
		r, c := lat.Coord(i)
		for dir := range e.nbr[i] {
			e.nbr[i][dir] = lat.Neighbor(r, c, dir)
		}
	}
	return e
}

// ExpandInto regenerates the complete per-cycle VLIW stream under mask into
// words: Depth words of NumQubits() slots, every slot of which it
// overwrites.
func (e *CellExpander) ExpandInto(words []isa.VLIW, mask *Mask) {
	var masked []bool
	if mask != nil {
		masked = mask.disabled
	}
	i := 0
	for r := 0; r < e.lat.Rows; r++ {
		for c := 0; c < e.lat.Cols; c, i = c+1, i+1 {
			nb := &e.nbr[i]
			var sig uint8
			for dir, n := range nb {
				if n < 0 || masked != nil && masked[n] {
					sig |= 1 << dir
				}
			}
			ops := e.table.entries[cellKey(r&1, c&1, sig, masked != nil && masked[i])]
			for s, co := range ops {
				pair := -1
				if co.dir >= 0 {
					pair = nb[co.dir]
				}
				words[s].Ops[i], words[s].Pairs[i] = co.op, pair
			}
		}
	}
}

// SyndromeBit is one ancilla measurement produced by a QECC cycle.
type SyndromeBit struct {
	Qubit int // flat ancilla index
	Role  Role
	Bit   int
}
