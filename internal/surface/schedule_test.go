package surface

import (
	"math/rand"
	"testing"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/isa"
)

func TestScheduleDescriptors(t *testing.T) {
	// Paper constants: Steane 9 instrs, Shor 14 (§7); Table 2 unit-cell
	// instruction counts 148/300/136/147.
	if Steane.Depth != 9 || Shor.Depth != 14 {
		t.Errorf("depths: Steane=%d Shor=%d, want 9/14", Steane.Depth, Shor.Depth)
	}
	wantUC := map[string]int{"Steane": 148, "Shor": 300, "SC-17": 136, "SC-13": 147}
	for _, s := range Schedules() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.UnitCellInstrs != wantUC[s.Name] {
			t.Errorf("%s unit-cell instrs = %d, want %d", s.Name, s.UnitCellInstrs, wantUC[s.Name])
		}
	}
	bad := Schedule{Name: "tiny", Depth: 3, UnitCellInstrs: 10, UnitCellQubits: 25}
	if err := bad.Validate(); err == nil {
		t.Error("sub-functional depth accepted")
	}
	if err := (Schedule{}).Validate(); err == nil {
		t.Error("empty schedule accepted")
	}
}

func TestCompileCycleStructure(t *testing.T) {
	for _, sched := range Schedules() {
		lat := NewPlanar(3)
		words := CompileCycle(lat, sched, nil)
		if len(words) != sched.Depth {
			t.Fatalf("%s: %d words, want %d", sched.Name, len(words), sched.Depth)
		}
		for s, w := range words {
			if w.Len() != lat.NumQubits() {
				t.Fatalf("%s step %d: width %d", sched.Name, s, w.Len())
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("%s step %d: %v", sched.Name, s, err)
			}
		}
		// Every unmasked ancilla preps and measures exactly once.
		for _, a := range lat.Qubits(RoleAncillaX) {
			if words[stepPrep].Ops[a] != isa.OpPrepPlus {
				t.Errorf("%s: X ancilla %d prep = %s", sched.Name, a, words[stepPrep].Ops[a])
			}
			if words[stepMeas].Ops[a] != isa.OpMeasX {
				t.Errorf("%s: X ancilla %d meas = %s", sched.Name, a, words[stepMeas].Ops[a])
			}
		}
		for _, a := range lat.Qubits(RoleAncillaZ) {
			if words[stepPrep].Ops[a] != isa.OpPrep0 || words[stepMeas].Ops[a] != isa.OpMeasZ {
				t.Errorf("%s: Z ancilla %d prep/meas wrong", sched.Name, a)
			}
		}
		// Padding sub-cycles are all idle.
		for s := activeDepth; s < sched.Depth; s++ {
			for q, op := range words[s].Ops {
				if op != isa.OpIdle {
					t.Errorf("%s pad step %d qubit %d: %s", sched.Name, s, q, op)
				}
			}
		}
	}
}

func TestCompileCycleCNOTCounts(t *testing.T) {
	lat := NewPlanar(5)
	words := CompileCycle(lat, Steane, nil)
	// Each ancilla performs exactly len(support) CNOT halves across the
	// cycle; each data qubit participates once per adjacent ancilla.
	cnots := make(map[int]int)
	for _, w := range words {
		for q, op := range w.Ops {
			if op.IsTwoQubit() {
				cnots[q]++
			}
		}
	}
	for _, role := range []Role{RoleAncillaX, RoleAncillaZ} {
		for _, a := range lat.Qubits(role) {
			want := len(lat.StabilizerSupport(a))
			if cnots[a] != want {
				t.Errorf("ancilla %d: %d CNOT halves, want %d", a, cnots[a], want)
			}
		}
	}
	for _, dq := range lat.Qubits(RoleData) {
		r, c := lat.Coord(dq)
		want := 0
		for dir := 0; dir < 4; dir++ {
			if lat.Neighbor(r, c, dir) >= 0 {
				want++
			}
		}
		if cnots[dq] != want {
			t.Errorf("data %d: %d CNOT halves, want %d", dq, cnots[dq], want)
		}
	}
}

func TestMaskedQubitsStayIdle(t *testing.T) {
	lat := NewPlanar(5)
	mask := NewMask(lat)
	mask.SetRegion(2, 2, 4, 4, true)
	words := CompileCycle(lat, Steane, mask)
	for s, w := range words {
		for q, op := range w.Ops {
			if mask.Disabled(q) && op != isa.OpIdle {
				t.Errorf("step %d: masked qubit %d got %s", s, q, op)
			}
			// No CNOT may touch a masked partner.
			if op.IsTwoQubit() && mask.Disabled(w.Pairs[q]) {
				t.Errorf("step %d: qubit %d pairs into masked region", s, q)
			}
		}
	}
}

// TestUnitCellExpansionMatchesDirectCompile is the paper's key µcode insight:
// replaying the constant-size unit-cell table regenerates the full lattice
// stream exactly, for any lattice size and any mask.
func TestUnitCellExpansionMatchesDirectCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sched := range Schedules() {
		table := BuildCellTable(sched)
		for _, dims := range [][2]int{{3, 3}, {5, 5}, {5, 9}, {9, 5}, {11, 11}, {4, 6}} {
			lat := NewLattice(dims[0], dims[1])
			masks := []*Mask{nil, NewMask(lat)}
			// A random mask too.
			rm := NewMask(lat)
			for i := 0; i < lat.NumQubits(); i++ {
				if rng.Intn(4) == 0 {
					rm.SetDisabled(i, true)
				}
			}
			masks = append(masks, rm)
			for mi, mask := range masks {
				direct := CompileCycle(lat, sched, mask)
				replayed := table.Expand(lat, mask)
				if len(direct) != len(replayed) {
					t.Fatalf("%s %v mask%d: depth %d vs %d", sched.Name, dims, mi, len(direct), len(replayed))
				}
				for s := range direct {
					if !direct[s].Equal(replayed[s]) {
						t.Fatalf("%s %v mask%d step %d: unit-cell replay diverges from direct compile",
							sched.Name, dims, mi, s)
					}
				}
			}
		}
	}
}

func TestCellTableIsLatticeIndependent(t *testing.T) {
	table := BuildCellTable(Steane)
	// Constant size: 2 parities × 2 parities × 16 signatures × 2 mask states.
	if got := table.NumEntries(); got != 128 {
		t.Errorf("cell table entries = %d, want 128", got)
	}
	if table.Schedule().Name != "Steane" {
		t.Error("schedule not retained")
	}
}

// runCycle executes one compiled QECC cycle on a fresh or existing execution
// unit, returning the syndrome bits keyed by ancilla index.
func runCycle(u *awg.ExecutionUnit, words []isa.VLIW) map[int]int {
	synd := make(map[int]int)
	u.MeasSink = func(q, bit int) { synd[q] = bit }
	for _, w := range words {
		u.ExecuteWord(w)
	}
	return synd
}

// TestSyndromeExtractionNoiselessConvergence: on a noiseless substrate, the
// second and later QECC cycles must reproduce identical syndromes (the lattice
// has been projected into a stabilizer eigenstate), and Z syndromes starting
// from |0...0> are deterministically 0.
func TestSyndromeExtractionNoiselessConvergence(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		lat := NewPlanar(d)
		words := CompileCycle(lat, Steane, nil)
		tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(d))))
		u := awg.New(tb, nil)
		first := runCycle(u, words)
		for _, a := range lat.Qubits(RoleAncillaZ) {
			if first[a] != 0 {
				t.Errorf("d=%d: initial Z syndrome at %d = %d, want 0", d, a, first[a])
			}
		}
		second := runCycle(u, words)
		third := runCycle(u, words)
		for a, b := range second {
			if third[a] != b {
				t.Errorf("d=%d: syndrome at %d not stable: %d then %d", d, a, b, third[a])
			}
			if first[a] != b {
				// X syndromes are random on the first round but must then
				// freeze; Z syndromes must match from the start.
				if lat.RoleOf(a) == RoleAncillaZ {
					t.Errorf("d=%d: Z syndrome at %d drifted %d->%d", d, a, first[a], b)
				}
			}
		}
	}
}

// TestSingleErrorSyndromeSignatures verifies the textbook signatures: an X
// error on a data qubit flips exactly the adjacent Z-syndromes, and a Z error
// flips the adjacent X-syndromes, relative to the previous round.
func TestSingleErrorSyndromeSignatures(t *testing.T) {
	lat := NewPlanar(3)
	words := CompileCycle(lat, Steane, nil)
	for _, dq := range lat.Qubits(RoleData) {
		for _, p := range []clifford.Pauli{clifford.PauliX, clifford.PauliZ} {
			tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(dq))))
			u := awg.New(tb, nil)
			runCycle(u, words)
			base := runCycle(u, words)
			tb.ApplyPauli(dq, p)
			after := runCycle(u, words)
			r, c := lat.Coord(dq)
			wantFlips := map[int]bool{}
			for dir := 0; dir < 4; dir++ {
				n := lat.Neighbor(r, c, dir)
				if n < 0 {
					continue
				}
				switch {
				case p == clifford.PauliX && lat.RoleOf(n) == RoleAncillaZ:
					wantFlips[n] = true
				case p == clifford.PauliZ && lat.RoleOf(n) == RoleAncillaX:
					wantFlips[n] = true
				}
			}
			for a := range base {
				flipped := base[a] != after[a]
				if flipped != wantFlips[a] {
					t.Errorf("data %d %s error: ancilla %d flipped=%v, want %v",
						dq, p, a, flipped, wantFlips[a])
				}
			}
		}
	}
}

// TestLogicalStatePreservedAcrossCycles: syndrome extraction must not disturb
// the encoded logical information. Prepare logical |0> (all data |0>, run a
// cycle to project), then verify the logical Z expectation stays +1 across
// many cycles.
func TestLogicalStatePreservedAcrossCycles(t *testing.T) {
	lat := NewPlanar(3)
	words := CompileCycle(lat, Steane, nil)
	tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(11)))
	u := awg.New(tb, nil)
	for cycle := 0; cycle < 5; cycle++ {
		runCycle(u, words)
		if got := tb.MeasureObservable(nil, lat.LogicalZ()); got != 1 {
			t.Fatalf("cycle %d: logical Z expectation = %d, want +1", cycle, got)
		}
	}
	// An injected logical X chain must flip the logical Z value and stay
	// flipped (undetectable by stabilizers).
	for _, q := range lat.LogicalX() {
		tb.X(q)
	}
	runCycle(u, words)
	if got := tb.MeasureObservable(nil, lat.LogicalZ()); got != -1 {
		t.Fatalf("after logical X: logical Z expectation = %d, want -1", got)
	}
}

func TestShorScheduleAlsoExtractsSyndromes(t *testing.T) {
	lat := NewPlanar(3)
	words := CompileCycle(lat, Shor, nil)
	tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(5)))
	u := awg.New(tb, nil)
	runCycle(u, words)
	synd := runCycle(u, words)
	dq := lat.Qubits(RoleData)[4]
	tb.ApplyPauli(dq, clifford.PauliX)
	after := runCycle(u, words)
	flips := 0
	for a := range synd {
		if synd[a] != after[a] {
			flips++
		}
	}
	if flips == 0 {
		t.Error("Shor schedule failed to detect an injected X error")
	}
}

func BenchmarkCompileCycleD5(b *testing.B) {
	lat := NewPlanar(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompileCycle(lat, Steane, nil)
	}
}

// BenchmarkUnitCellExpandD5 flips one mask bit per iteration, so every
// expansion sees a changed mask, as the store's re-expansions do.
func BenchmarkUnitCellExpandD5(b *testing.B) {
	lat := NewPlanar(5)
	table := BuildCellTable(Steane)
	mask := NewMask(lat)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mask.SetDisabled(0, i%2 == 0)
		table.Expand(lat, mask)
	}
}
