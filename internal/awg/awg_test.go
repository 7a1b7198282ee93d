package awg

import (
	"math/rand"
	"testing"

	"quest/internal/clifford"
	"quest/internal/isa"
	"quest/internal/noise"
)

func newUnit(n int, seed int64, m *noise.Model) *ExecutionUnit {
	tb := clifford.New(n, rand.New(rand.NewSource(seed)))
	var inj *noise.Injector
	if m != nil {
		inj = noise.NewInjector(*m, seed)
	}
	return New(tb, inj)
}

func TestLatchFireBasics(t *testing.T) {
	u := newUnit(3, 1, nil)
	if u.N() != 3 {
		t.Fatalf("N = %d", u.N())
	}
	w := isa.NewVLIW(3)
	w.Set(0, isa.OpX)
	u.LatchWord(w)
	if !u.Ready() {
		t.Fatal("fully latched unit not Ready")
	}
	u.Fire()
	if out := u.Tableau().MeasureZ(0); out != 1 {
		t.Errorf("X µop not applied: measured %d", out)
	}
	latches, fires, meas := u.Stats()
	if latches != 3 || fires != 1 || meas != 0 {
		t.Errorf("stats = (%d,%d,%d), want (3,1,0)", latches, fires, meas)
	}
}

func TestLatchOrderIndependence(t *testing.T) {
	// The FIFO microcode optimization rests on latch order not mattering:
	// executing the same word latched in different orders must produce the
	// same state.
	mkWord := func() isa.VLIW {
		w := isa.NewVLIW(4)
		w.Set(0, isa.OpH)
		w.SetPair(1, isa.OpCNOTControl, 2)
		w.SetPair(2, isa.OpCNOTTarget, 1)
		w.Set(3, isa.OpX)
		return w
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	var states []*clifford.Tableau
	for _, ord := range orders {
		u := newUnit(4, 9, nil)
		u.Tableau().X(1) // make the CNOT act
		ops := mkWord().MicroOps()
		for _, i := range ord {
			u.Latch(ops[i])
		}
		u.Fire()
		states = append(states, u.Tableau())
	}
	for i := 1; i < len(states); i++ {
		for q := 0; q < 4; q++ {
			if states[0].ExpectationZ(q) != states[i].ExpectationZ(q) {
				t.Fatalf("order %d: qubit %d expectation differs", i, q)
			}
		}
	}
}

func TestFireRequiresFullLatch(t *testing.T) {
	u := newUnit(2, 1, nil)
	u.Latch(isa.MicroOp{Op: isa.OpX, Qubit: 0})
	if u.Ready() {
		t.Error("half-latched unit Ready")
	}
	defer func() {
		if recover() == nil {
			t.Error("Fire with unlatched switch did not panic")
		}
	}()
	u.Fire()
}

func TestDoubleLatchPanics(t *testing.T) {
	u := newUnit(2, 1, nil)
	u.Latch(isa.MicroOp{Op: isa.OpX, Qubit: 0})
	defer func() {
		if recover() == nil {
			t.Error("double latch did not panic")
		}
	}()
	u.Latch(isa.MicroOp{Op: isa.OpZ, Qubit: 0})
}

func TestMeasurementsReachSink(t *testing.T) {
	u := newUnit(2, 1, nil)
	var got []int
	u.MeasSink = func(q, bit int) { got = append(got, q, bit) }
	w := isa.NewVLIW(2)
	w.Set(0, isa.OpPrep1)
	u.ExecuteWord(w)
	w2 := isa.NewVLIW(2)
	w2.Set(0, isa.OpMeasZ)
	u.ExecuteWord(w2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("sink received %v, want [0 1]", got)
	}
	_, _, meas := u.Stats()
	if meas != 1 {
		t.Errorf("measurement count = %d", meas)
	}
}

func TestAllOpcodesExecute(t *testing.T) {
	u := newUnit(4, 1, nil)
	u.MeasSink = func(int, int) {}
	for op := isa.Opcode(0); op.Valid(); op++ {
		w := isa.NewVLIW(4)
		switch {
		case op.IsTwoQubit():
			switch op {
			case isa.OpCNOTControl:
				w.SetPair(0, isa.OpCNOTControl, 1)
				w.SetPair(1, isa.OpCNOTTarget, 0)
			case isa.OpCNOTTarget:
				w.SetPair(0, isa.OpCNOTTarget, 1)
				w.SetPair(1, isa.OpCNOTControl, 0)
			case isa.OpCZ:
				w.SetPair(0, isa.OpCZ, 1)
				w.SetPair(1, isa.OpCZ, 0)
			}
		default:
			w.Set(0, op)
		}
		u.ExecuteWord(w) // must not panic
	}
}

func TestCZExecutesOncePerPair(t *testing.T) {
	// CZ applied twice is identity; if the unit executed the pair from both
	// sides the phase kickback would cancel. |+>|1> -> CZ -> |->|1>.
	u := newUnit(2, 1, nil)
	u.Tableau().H(0)
	u.Tableau().X(1)
	w := isa.NewVLIW(2)
	w.SetPair(0, isa.OpCZ, 1)
	w.SetPair(1, isa.OpCZ, 0)
	u.ExecuteWord(w)
	if out := u.Tableau().MeasureX(0); out != 1 {
		t.Errorf("CZ executed an even number of times (measured %d, want 1)", out)
	}
}

func TestMismatchedPairPanics(t *testing.T) {
	u := newUnit(3, 1, nil)
	w := isa.VLIW{
		Ops:   []isa.Opcode{isa.OpCNOTControl, isa.OpIdle, isa.OpIdle},
		Pairs: []int{1, -1, -1},
	}
	defer func() {
		if recover() == nil {
			t.Error("dangling CNOT control did not panic at fire")
		}
	}()
	u.LatchWord(w)
	u.Fire()
}

func TestWrongWidthWordPanics(t *testing.T) {
	u := newUnit(3, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("wrong-width word accepted")
		}
	}()
	u.ExecuteWord(isa.NewVLIW(5))
}

// TestExecuteWordOverLatchPanics: a word fills every switch, so executing
// one while a switch is still latched is a double latch on that switch.
func TestExecuteWordOverLatchPanics(t *testing.T) {
	u := newUnit(3, 1, nil)
	u.Latch(isa.MicroOp{Op: isa.OpX, Qubit: 1})
	defer func() {
		if r := recover(); r != "awg: double latch on qubit 1 before fire" {
			t.Errorf("ExecuteWord over a latched switch: panic %v, want a double latch on qubit 1", r)
		}
	}()
	u.ExecuteWord(isa.NewVLIW(3))
}

func TestNoiseInjectionOnIdle(t *testing.T) {
	m := noise.Uniform(1)
	u := newUnit(1, 1, &m)
	w := isa.NewVLIW(1) // idle
	u.ExecuteWord(w)
	// With p=1 idle noise a Pauli was applied; state may or may not flip in
	// Z, but the injector log must have exactly one fault.
	// (Access via the noise injector isn't exposed; assert indirectly: run
	// many idles and check the state was disturbed at least once.)
	disturbed := false
	for i := 0; i < 20; i++ {
		u.ExecuteWord(isa.NewVLIW(1))
		if u.Tableau().ExpectationZ(0) != 1 {
			disturbed = true
			break
		}
	}
	if !disturbed {
		t.Error("certain idle noise never disturbed the qubit")
	}
}

func TestMeasurementNoiseFlipsReportedBit(t *testing.T) {
	m := noise.Model{Meas: 1}
	u := newUnit(1, 1, &m)
	var bits []int
	u.MeasSink = func(_, b int) { bits = append(bits, b) }
	w := isa.NewVLIW(1)
	w.Set(0, isa.OpMeasZ)
	u.ExecuteWord(w)
	// Qubit is |0>, certain measurement error flips the report to 1.
	if len(bits) != 1 || bits[0] != 1 {
		t.Errorf("reported bits %v, want [1]", bits)
	}
	// The projected state is still |0>: a second (also flipped) report is 1.
	u.ExecuteWord(w)
	if bits[1] != 1 {
		t.Errorf("second report %d, want 1", bits[1])
	}
}

func TestTGateIsCountedNotSimulated(t *testing.T) {
	u := newUnit(1, 1, nil)
	w := isa.NewVLIW(1)
	w.Set(0, isa.OpT)
	u.ExecuteWord(w) // must not panic and must not flip Z expectation
	if u.Tableau().ExpectationZ(0) != 1 {
		t.Error("T placeholder disturbed Z eigenstate")
	}
}

// TestExecuteWordDoesNotAllocate pins a full sub-cycle (latch straight from
// the word's slots, then fire gates, a CNOT pair and measurements into the
// sink) to zero allocations.
func TestExecuteWordDoesNotAllocate(t *testing.T) {
	u := newUnit(6, 1, nil)
	bits := 0
	u.MeasSink = func(_, bit int) { bits += bit }
	w := isa.NewVLIW(6)
	w.Set(0, isa.OpH)
	w.SetPair(1, isa.OpCNOTControl, 2)
	w.SetPair(2, isa.OpCNOTTarget, 1)
	w.Set(3, isa.OpPrep0)
	w.Set(4, isa.OpMeasZ)
	w.Set(5, isa.OpMeasX)
	u.ExecuteWord(w)
	if a := testing.AllocsPerRun(100, func() { u.ExecuteWord(w) }); a != 0 {
		t.Errorf("ExecuteWord: %v allocs/op, want 0", a)
	}
}
