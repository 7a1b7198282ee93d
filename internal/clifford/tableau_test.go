package clifford

import (
	"math/rand"
	"testing"
)

func newT(n int, seed int64) *Tableau {
	return New(n, rand.New(rand.NewSource(seed)))
}

func TestInitialStateIsAllZeros(t *testing.T) {
	tb := newT(5, 1)
	for q := 0; q < 5; q++ {
		if got := tb.ExpectationZ(q); got != 1 {
			t.Errorf("qubit %d: ExpectationZ = %d, want +1", q, got)
		}
		if out := tb.MeasureZ(q); out != 0 {
			t.Errorf("qubit %d: measured %d in |0...0>", q, out)
		}
	}
}

func TestXFlipsMeasurement(t *testing.T) {
	tb := newT(3, 1)
	tb.X(1)
	if out := tb.MeasureZ(1); out != 1 {
		t.Fatalf("X|0> measured %d, want 1", out)
	}
	if out := tb.MeasureZ(0); out != 0 {
		t.Fatalf("untouched qubit measured %d", out)
	}
	tb.X(1)
	if out := tb.MeasureZ(1); out != 0 {
		t.Fatalf("XX|0> measured %d, want 0", out)
	}
}

func TestZAndYPhases(t *testing.T) {
	// Z|0> = |0>; Y|0> = i|1> so MeasureZ gives 1.
	tb := newT(2, 1)
	tb.Z(0)
	if out := tb.MeasureZ(0); out != 0 {
		t.Errorf("Z|0> measured %d", out)
	}
	tb.Y(1)
	if out := tb.MeasureZ(1); out != 1 {
		t.Errorf("Y|0> measured %d, want 1", out)
	}
}

func TestHadamardCreatesRandomness(t *testing.T) {
	// H|0> then MeasureZ should yield both outcomes over many trials.
	counts := [2]int{}
	for seed := int64(0); seed < 64; seed++ {
		tb := newT(1, seed)
		tb.H(0)
		counts[tb.MeasureZ(0)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("H|0> outcomes not random: %v", counts)
	}
}

func TestHadamardRoundTrip(t *testing.T) {
	tb := newT(1, 1)
	tb.H(0)
	tb.H(0)
	if out := tb.MeasureZ(0); out != 0 {
		t.Fatalf("HH|0> measured %d", out)
	}
	tb.X(0)
	tb.H(0)
	tb.H(0)
	if out := tb.MeasureZ(0); out != 1 {
		t.Fatalf("HHX|0> measured %d", out)
	}
}

func TestMeasurementCollapseIsSticky(t *testing.T) {
	// After measuring H|0>, remeasuring must repeat the same outcome.
	for seed := int64(0); seed < 32; seed++ {
		tb := newT(1, seed)
		tb.H(0)
		first := tb.MeasureZ(0)
		for k := 0; k < 5; k++ {
			if got := tb.MeasureZ(0); got != first {
				t.Fatalf("seed %d: collapse not sticky: %d then %d", seed, first, got)
			}
		}
	}
}

func TestBellPairCorrelations(t *testing.T) {
	oneSeen := false
	for seed := int64(0); seed < 64; seed++ {
		tb := newT(2, seed)
		tb.H(0)
		tb.CNOT(0, 1)
		a := tb.MeasureZ(0)
		b := tb.MeasureZ(1)
		if a != b {
			t.Fatalf("seed %d: Bell pair outcomes differ: %d %d", seed, a, b)
		}
		if a == 1 {
			oneSeen = true
		}
	}
	if !oneSeen {
		t.Fatal("Bell measurement never produced 1")
	}
}

func TestGHZParity(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		tb := newT(5, seed)
		tb.H(0)
		for q := 1; q < 5; q++ {
			tb.CNOT(0, q)
		}
		first := tb.MeasureZ(0)
		for q := 1; q < 5; q++ {
			if got := tb.MeasureZ(q); got != first {
				t.Fatalf("seed %d: GHZ qubit %d = %d, want %d", seed, q, got, first)
			}
		}
	}
}

func TestCNOTTruthTable(t *testing.T) {
	cases := []struct{ c, tq, wc, wt int }{
		{0, 0, 0, 0}, {0, 1, 0, 1}, {1, 0, 1, 1}, {1, 1, 1, 0},
	}
	for _, cse := range cases {
		tb := newT(2, 1)
		if cse.c == 1 {
			tb.X(0)
		}
		if cse.tq == 1 {
			tb.X(1)
		}
		tb.CNOT(0, 1)
		if got := tb.MeasureZ(0); got != cse.wc {
			t.Errorf("CNOT(%d,%d): control = %d, want %d", cse.c, cse.tq, got, cse.wc)
		}
		if got := tb.MeasureZ(1); got != cse.wt {
			t.Errorf("CNOT(%d,%d): target = %d, want %d", cse.c, cse.tq, got, cse.wt)
		}
	}
}

func TestCZPhaseKickback(t *testing.T) {
	// CZ between |+> and |1> flips the |+> to |-> : H then measure gives 1.
	tb := newT(2, 1)
	tb.H(0)
	tb.X(1)
	tb.CZ(0, 1)
	tb.H(0)
	if out := tb.MeasureZ(0); out != 1 {
		t.Fatalf("CZ phase kickback: measured %d, want 1", out)
	}
	// CZ with |0> control does nothing.
	tb2 := newT(2, 1)
	tb2.H(0)
	tb2.CZ(0, 1)
	tb2.H(0)
	if out := tb2.MeasureZ(0); out != 0 {
		t.Fatalf("CZ on |0> target disturbed |+>: measured %d", out)
	}
}

func TestSGateViaConjugation(t *testing.T) {
	// HSSH = HZH = X: so applying H,S,S,H to |0> must give |1>.
	tb := newT(1, 1)
	tb.H(0)
	tb.S(0)
	tb.S(0)
	tb.H(0)
	if out := tb.MeasureZ(0); out != 1 {
		t.Fatalf("HSSH|0> measured %d, want 1", out)
	}
}

func TestSDaggerInvertsS(t *testing.T) {
	// S† S = I on a state where phases matter: |+>.
	tb := newT(1, 1)
	tb.H(0)
	tb.S(0)
	tb.SDagger(0)
	if out := tb.MeasureX(0); out != 0 {
		t.Fatalf("S†S|+> measured %d in X basis, want 0 (|+>)", out)
	}
	// S|+> = |i>; S·S|+> = |->.
	tb2 := newT(1, 1)
	tb2.H(0)
	tb2.S(0)
	tb2.S(0)
	if out := tb2.MeasureX(0); out != 1 {
		t.Fatalf("SS|+> measured %d in X basis, want 1 (|->)", out)
	}
}

func TestPrepStates(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		tb := newT(3, seed)
		tb.H(0)
		tb.H(1)
		tb.H(2)
		tb.Prep0(0)
		tb.Prep1(1)
		tb.PrepPlus(2)
		if out := tb.MeasureZ(0); out != 0 {
			t.Fatalf("Prep0 gave %d", out)
		}
		if out := tb.MeasureZ(1); out != 1 {
			t.Fatalf("Prep1 gave %d", out)
		}
		if out := tb.MeasureX(2); out != 0 {
			t.Fatalf("PrepPlus: X-basis measurement gave %d", out)
		}
	}
}

func TestMeasureXBases(t *testing.T) {
	tb := newT(1, 1)
	tb.H(0) // |+>
	if out := tb.MeasureX(0); out != 0 {
		t.Fatalf("MeasureX|+> = %d, want 0", out)
	}
	tb.Z(0) // |->
	if out := tb.MeasureX(0); out != 1 {
		t.Fatalf("MeasureX|-> = %d, want 1", out)
	}
}

func TestExpectationZ(t *testing.T) {
	tb := newT(2, 1)
	if tb.ExpectationZ(0) != 1 {
		t.Error("fresh qubit expectation != +1")
	}
	tb.X(0)
	if tb.ExpectationZ(0) != -1 {
		t.Error("flipped qubit expectation != -1")
	}
	tb.H(1)
	if tb.ExpectationZ(1) != 0 {
		t.Error("|+> expectation != 0 (random)")
	}
	// ExpectationZ must not disturb the state.
	tb.CNOT(1, 0)
	before := tb.Clone()
	_ = tb.ExpectationZ(0)
	_ = tb.ExpectationZ(1)
	_ = before.MeasureZ(0) // clone still measurable
	// q0 was |1> before CNOT(1,0), so q0 = 1 XOR q1: outcomes anti-correlate.
	a := tb.MeasureZ(0)
	if got := tb.MeasureZ(1); got != 1-a {
		t.Error("entangled qubits lost anti-correlation after ExpectationZ")
	}
}

func TestMeasureObservable(t *testing.T) {
	tb := newT(3, 1)
	// |000>: Z0Z1 deterministic +1, X0 random, Z0 +1.
	if got := tb.MeasureObservable(nil, []int{0, 1}); got != 1 {
		t.Errorf("Z0Z1 on |000> = %d, want +1", got)
	}
	if got := tb.MeasureObservable([]int{0}, nil); got != 0 {
		t.Errorf("X0 on |000> = %d, want 0 (random)", got)
	}
	tb.X(0)
	if got := tb.MeasureObservable(nil, []int{0, 1}); got != -1 {
		t.Errorf("Z0Z1 on |100> = %d, want -1", got)
	}
	// GHZ: X0X1X2 deterministic +1, Z0Z1 deterministic +1.
	g := newT(3, 2)
	g.H(0)
	g.CNOT(0, 1)
	g.CNOT(0, 2)
	if got := g.MeasureObservable([]int{0, 1, 2}, nil); got != 1 {
		t.Errorf("X0X1X2 on GHZ = %d, want +1", got)
	}
	if got := g.MeasureObservable(nil, []int{0, 1}); got != 1 {
		t.Errorf("Z0Z1 on GHZ = %d, want +1", got)
	}
	if got := g.MeasureObservable(nil, []int{0}); got != 0 {
		t.Errorf("Z0 on GHZ = %d, want 0", got)
	}
}

func TestApplyPauli(t *testing.T) {
	tb := newT(2, 1)
	tb.ApplyPauli(0, PauliX)
	if out := tb.MeasureZ(0); out != 1 {
		t.Error("ApplyPauli X had no effect")
	}
	tb.ApplyPauli(0, PauliI)
	if out := tb.MeasureZ(0); out != 1 {
		t.Error("identity Pauli changed state")
	}
	tb.ApplyPauli(1, PauliY)
	if out := tb.MeasureZ(1); out != 1 {
		t.Error("ApplyPauli Y had no effect on Z basis")
	}
	for p, want := range map[Pauli]string{PauliI: "I", PauliX: "X", PauliY: "Y", PauliZ: "Z"} {
		if p.String() != want {
			t.Errorf("Pauli %d String = %q", p, p.String())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tb := newT(4, 1)
	tb.H(0)
	tb.CNOT(0, 1)
	c := tb.Clone()
	c.X(2)
	if tb.ExpectationZ(2) != 1 {
		t.Error("clone mutation leaked into original")
	}
	if c.ExpectationZ(2) != -1 {
		t.Error("clone mutation lost")
	}
}

func TestResetRestoresZeroState(t *testing.T) {
	tb := newT(3, 1)
	tb.H(0)
	tb.CNOT(0, 1)
	tb.X(2)
	tb.Reset()
	for q := 0; q < 3; q++ {
		if tb.ExpectationZ(q) != 1 {
			t.Errorf("qubit %d not |0> after Reset", q)
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	tb := newT(2, 1)
	expectPanic("qubit out of range", func() { tb.H(5) })
	expectPanic("negative qubit", func() { tb.MeasureZ(-1) })
	expectPanic("cnot self", func() { tb.CNOT(1, 1) })
	expectPanic("zero qubits", func() { New(0, nil) })
	expectPanic("bad pauli", func() { tb.ApplyPauli(0, Pauli(9)) })
}

func TestStabilizerSignTracksErrors(t *testing.T) {
	tb := newT(2, 1)
	if tb.StabilizerSign(0) != 0 {
		t.Error("fresh stabilizer sign nonzero")
	}
	tb.X(0)
	if tb.StabilizerSign(0) != 1 {
		t.Error("X error did not flip Z0 stabilizer sign")
	}
	expectPanic := func() {
		defer func() {
			if recover() == nil {
				t.Error("StabilizerSign out of range: no panic")
			}
		}()
		tb.StabilizerSign(5)
	}
	expectPanic()
}

// TestRepetitionCodeSyndrome encodes one logical bit across three qubits and
// verifies syndrome extraction detects single flips without disturbing data —
// a miniature version of the surface-code loop the rest of the repo builds.
func TestRepetitionCodeSyndrome(t *testing.T) {
	for errQ := -1; errQ < 3; errQ++ {
		tb := newT(5, int64(errQ)+10) // 3 data + 2 ancilla
		// Encode |+++>-ish GHZ: H then fan out.
		tb.H(0)
		tb.CNOT(0, 1)
		tb.CNOT(0, 2)
		if errQ >= 0 {
			tb.X(errQ)
		}
		// Syndrome: ancilla 3 = Z0Z1 parity, ancilla 4 = Z1Z2 parity.
		tb.Prep0(3)
		tb.Prep0(4)
		tb.CNOT(0, 3)
		tb.CNOT(1, 3)
		tb.CNOT(1, 4)
		tb.CNOT(2, 4)
		s1 := tb.MeasureZ(3)
		s2 := tb.MeasureZ(4)
		var want [2]int
		switch errQ {
		case 0:
			want = [2]int{1, 0}
		case 1:
			want = [2]int{1, 1}
		case 2:
			want = [2]int{0, 1}
		default:
			want = [2]int{0, 0}
		}
		if s1 != want[0] || s2 != want[1] {
			t.Errorf("error on %d: syndrome (%d,%d), want %v", errQ, s1, s2, want)
		}
		// Data parity must be intact after decode+correct.
		if errQ >= 0 {
			tb.X(errQ)
		}
		a := tb.MeasureZ(0)
		if tb.MeasureZ(1) != a || tb.MeasureZ(2) != a {
			t.Errorf("error on %d: data decorrelated after correction", errQ)
		}
	}
}

// TestManyQubitWordBoundaries exercises qubit indices spanning multiple
// uint64 words (q=63,64,65...) to catch masking bugs.
func TestManyQubitWordBoundaries(t *testing.T) {
	tb := newT(130, 1)
	for _, q := range []int{0, 62, 63, 64, 65, 127, 128, 129} {
		tb.X(q)
		if out := tb.MeasureZ(q); out != 1 {
			t.Errorf("qubit %d: X lost across word boundary", q)
		}
	}
	tb.Reset()
	tb.H(63)
	tb.CNOT(63, 64)
	a := tb.MeasureZ(63)
	if b := tb.MeasureZ(64); b != a {
		t.Error("Bell pair across word boundary decorrelated")
	}
}

func BenchmarkSyndromeCycle100Qubits(b *testing.B) {
	tb := newT(100, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// One syndrome-like cycle: prep, 4 CNOTs, measure, on 20 ancillas.
		for a := 80; a < 100; a++ {
			tb.Prep0(a)
			tb.CNOT((a-80)*4, a)
			tb.CNOT((a-80)*4+1, a)
			tb.CNOT((a-80)*4+2, a)
			tb.CNOT((a-80)*4+3, a)
			tb.MeasureZ(a)
		}
	}
}

// TestGatesAndMeasurementsDoNotAllocate pins every gate and measurement on a
// warmed tableau to zero allocations. The measurement cases run both the
// random branch (after an H) and the deterministic one, across two column
// words.
func TestGatesAndMeasurementsDoNotAllocate(t *testing.T) {
	tb := newT(100, 1)
	for q := 0; q < 99; q++ {
		tb.H(q)
		tb.CNOT(q, q+1)
	}
	cases := []struct {
		name string
		f    func()
	}{
		{"H", func() { tb.H(70) }},
		{"S", func() { tb.S(70) }},
		{"X", func() { tb.X(70) }},
		{"Y", func() { tb.Y(70) }},
		{"Z", func() { tb.Z(70) }},
		{"CNOT", func() { tb.CNOT(3, 70) }},
		{"CZ", func() { tb.CZ(3, 70) }},
		{"MeasureZ", func() { tb.H(70); tb.MeasureZ(70); tb.CNOT(70, 5); tb.MeasureZ(5) }},
		{"MeasureX", func() { tb.MeasureX(70); tb.MeasureX(70) }},
		{"ExpectationZ", func() { tb.ExpectationZ(70); tb.ExpectationZ(5) }},
		{"Prep0", func() { tb.H(70); tb.Prep0(70); tb.Prep0(70) }},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(100, c.f); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
}
