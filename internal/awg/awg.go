// Package awg models the quantum execution unit of the paper's §2.3: the
// primeline multiplexing architecture of Hornibrook et al., in which a small
// set of arbitrary waveform generators (AWGs) continuously drive an analog
// prime-line bus, and a matrix of microwave switches — one per qubit —
// selects which waveform reaches which qubit. A physical instruction is
// nothing more than the select bits latched onto the switches; when the
// master clock fires, every latched switch passes its waveform and the whole
// tile executes one lock-step sub-cycle.
//
// The model is behavioural: latching fills a per-qubit select register (in
// any order, since order does not matter — the property the FIFO microcode
// optimization rests on), and Fire applies the selected gates to the
// stabilizer substrate, injecting noise at each location. The unit also
// counts latch and fire events so microarchitecture experiments can audit
// that every qubit is serviced every sub-cycle.
package awg

import (
	"fmt"
	"slices"

	"quest/internal/clifford"
	"quest/internal/isa"
	"quest/internal/noise"
)

// Waveform identifies one of the analog control pulses an AWG produces. Each
// opcode maps to a waveform; the switch matrix routes it.
type Waveform uint8

// NumWaveforms is the number of distinct pulses the AWG bank produces — one
// per physical opcode class.
const NumWaveforms = isa.NumOpcodes

// ExecutionUnit is one tile's AWG bank plus switch matrix plus the
// measurement return path.
type ExecutionUnit struct {
	n       int
	tableau *clifford.Tableau
	inj     *noise.Injector

	selects  []isa.Opcode // latched select register per switch
	pairs    []int
	latched  []bool
	nLatched int // switches latched since the last Fire

	latchCount uint64
	fireCount  uint64
	measCount  uint64

	timing    *Timing
	elapsedNs float64

	// MeasSink receives every measurement produced by Fire; the MCE points
	// it at its error-decoder pipeline.
	MeasSink func(qubit int, bit int)
}

// New returns an execution unit driving n qubits of the given substrate with
// the given noise injector (nil means noiseless).
func New(tableau *clifford.Tableau, inj *noise.Injector) *ExecutionUnit {
	n := tableau.N()
	return &ExecutionUnit{
		n:       n,
		tableau: tableau,
		inj:     inj,
		selects: make([]isa.Opcode, n),
		pairs:   make([]int, n),
		latched: make([]bool, n),
	}
}

// N returns the number of switches (qubits) in the matrix.
func (u *ExecutionUnit) N() int { return u.n }

// Tableau exposes the underlying substrate (used by tests and verification).
func (u *ExecutionUnit) Tableau() *clifford.Tableau { return u.tableau }

// Latch loads one µop's select bits onto its qubit's switch. Latching twice
// without an intervening Fire indicates a microcode pipeline bug and panics.
func (u *ExecutionUnit) Latch(m isa.MicroOp) {
	u.latch(m.Qubit, m.Op, m.Pair)
}

// LatchWord latches a whole VLIW word (convenience for lock-step callers),
// slot q of the word onto switch q.
func (u *ExecutionUnit) LatchWord(w isa.VLIW) {
	for q, op := range w.Ops {
		u.latch(q, op, w.Pairs[q])
	}
}

func (u *ExecutionUnit) latch(q int, op isa.Opcode, pair int) {
	if q < 0 || q >= u.n {
		panic(fmt.Sprintf("awg: latch for qubit %d outside %d-switch matrix", q, u.n))
	}
	if u.latched[q] {
		panic(fmt.Sprintf("awg: double latch on qubit %d before fire", q))
	}
	u.selects[q] = op
	u.pairs[q] = pair
	u.latched[q] = true
	u.nLatched++
	u.latchCount++
}

// Ready reports whether every switch has been latched since the last Fire —
// the determinism invariant: the master clock may only fire when no qubit
// would be left uncontrolled.
func (u *ExecutionUnit) Ready() bool {
	for _, l := range u.latched {
		if !l {
			return false
		}
	}
	return true
}

// Fire applies the master clock: every latched waveform executes
// simultaneously on the substrate, measurements are routed to MeasSink, and
// all latches clear. Fire panics if any switch is unlatched (a violated
// lock-step guarantee) or if paired two-qubit µops are inconsistent.
func (u *ExecutionUnit) Fire() {
	if !u.Ready() {
		panic("awg: fire with unlatched switches (lock-step violation)")
	}
	u.fire(u.selects, u.pairs)
	for q := range u.latched {
		u.latched[q] = false
	}
	u.nLatched = 0
}

// fire executes one sub-cycle whose select registers are ops and pairs.
func (u *ExecutionUnit) fire(ops []isa.Opcode, pairs []int) {
	u.fireCount++
	if u.timing != nil {
		max := u.timing.IdleNs
		for _, op := range ops {
			if l := u.timing.opLatencyNs(op); l > max {
				max = l
			}
		}
		u.elapsedNs += max
	}
	// Two-qubit gates execute once per pair: act on the control side.
	for q, op := range ops {
		switch op {
		case isa.OpIdle:
			if u.inj != nil {
				u.inj.Idle(u.tableau, q)
			}
		case isa.OpPrep0:
			u.tableau.Prep0(q)
			if u.inj != nil {
				u.inj.AfterPrep(u.tableau, q, false)
			}
		case isa.OpPrep1:
			u.tableau.Prep1(q)
			if u.inj != nil {
				u.inj.AfterPrep(u.tableau, q, false)
			}
		case isa.OpPrepPlus:
			u.tableau.PrepPlus(q)
			if u.inj != nil {
				u.inj.AfterPrep(u.tableau, q, true)
			}
		case isa.OpX:
			u.tableau.X(q)
			u.afterGate1(q)
		case isa.OpY:
			u.tableau.Y(q)
			u.afterGate1(q)
		case isa.OpZ:
			u.tableau.Z(q)
			u.afterGate1(q)
		case isa.OpH:
			u.tableau.H(q)
			u.afterGate1(q)
		case isa.OpS:
			u.tableau.S(q)
			u.afterGate1(q)
		case isa.OpSDagger:
			u.tableau.SDagger(q)
			u.afterGate1(q)
		case isa.OpT:
			// T is non-Clifford; at the physical level it is realized by
			// magic-state injection. The substrate simulator treats it as a
			// placement marker: the gate-count and timing effects are what
			// the architecture experiments measure. Noise still applies.
			u.afterGate1(q)
		case isa.OpCNOTControl:
			p := pairs[q]
			checkPair(ops, pairs, q, p, isa.OpCNOTTarget)
			u.tableau.CNOT(q, p)
			if u.inj != nil {
				u.inj.AfterGate2(u.tableau, q, p)
			}
		case isa.OpCNOTTarget:
			// executed from the control side
			checkPair(ops, pairs, q, pairs[q], isa.OpCNOTControl)
		case isa.OpCZ:
			p := pairs[q]
			checkPair(ops, pairs, q, p, isa.OpCZ)
			if q < p { // execute each CZ pair once
				u.tableau.CZ(q, p)
				if u.inj != nil {
					u.inj.AfterGate2(u.tableau, q, p)
				}
			}
		case isa.OpMeasZ:
			bit := u.tableau.MeasureZ(q)
			u.deliverMeasurement(q, bit)
		case isa.OpMeasX:
			bit := u.tableau.MeasureX(q)
			u.deliverMeasurement(q, bit)
		default:
			panic(fmt.Sprintf("awg: unhandled opcode %s on qubit %d", op, q))
		}
	}
}

func (u *ExecutionUnit) afterGate1(q int) {
	if u.inj != nil {
		u.inj.AfterGate1(u.tableau, q)
	}
}

func (u *ExecutionUnit) deliverMeasurement(q, bit int) {
	u.measCount++
	if u.inj != nil && u.inj.FlipMeasurement(q) {
		bit ^= 1
	}
	if u.MeasSink != nil {
		u.MeasSink(q, bit)
	}
}

func checkPair(ops []isa.Opcode, pairs []int, q, p int, want isa.Opcode) {
	if p < 0 || p >= len(ops) {
		panic(fmt.Sprintf("awg: qubit %d paired with out-of-range %d", q, p))
	}
	if ops[p] != want {
		panic(fmt.Sprintf("awg: qubit %d (%s) paired with qubit %d latched as %s, want %s",
			q, ops[q], p, ops[p], want))
	}
	if pairs[p] != q {
		panic(fmt.Sprintf("awg: asymmetric pairing %d->%d but %d->%d", q, p, p, pairs[p]))
	}
}

// Stats returns cumulative (latches, fires, measurements).
func (u *ExecutionUnit) Stats() (latches, fires, measurements uint64) {
	return u.latchCount, u.fireCount, u.measCount
}

// ExecuteWord latches and fires a complete VLIW word — one lock-step
// sub-cycle. Measurements flow to MeasSink. The word fills every select
// register at once, so it fires straight from the word's slots instead of
// latching them; a switch already latched panics as a double latch, as
// LatchWord does.
func (u *ExecutionUnit) ExecuteWord(w isa.VLIW) {
	if w.Len() != u.n {
		panic(fmt.Sprintf("awg: word width %d != matrix width %d", w.Len(), u.n))
	}
	if u.nLatched > 0 {
		panic(fmt.Sprintf("awg: double latch on qubit %d before fire", slices.Index(u.latched, true)))
	}
	u.latchCount += uint64(u.n)
	u.fire(w.Ops, w.Pairs)
}
