package microcode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"quest/internal/isa"
	"quest/internal/jj"
	"quest/internal/surface"
)

func TestCapacityScalingLaws(t *testing.T) {
	// RAM strictly above FIFO, FIFO linear, unit cell constant (Figure 10).
	for _, n := range []int{8, 48, 120, 1000, 10000} {
		ram := CapacityBits(DesignRAM, surface.Steane, n)
		fifo := CapacityBits(DesignFIFO, surface.Steane, n)
		uc := CapacityBits(DesignUnitCell, surface.Steane, n)
		if ram <= fifo {
			t.Errorf("n=%d: RAM %d not > FIFO %d", n, ram, fifo)
		}
		if fifo != n*surface.Steane.Depth*isa.OpcodeBits {
			t.Errorf("n=%d: FIFO capacity %d not linear", n, fifo)
		}
		if uc != surface.Steane.UnitCellInstrs*isa.OpcodeBits {
			t.Errorf("n=%d: unit cell capacity %d not constant", n, uc)
		}
	}
}

func TestCapacityMonotonicity(t *testing.T) {
	f := func(a, b uint16) bool {
		na, nb := int(a)%5000, int(b)%5000
		if na > nb {
			na, nb = nb, na
		}
		for _, d := range []Design{DesignRAM, DesignFIFO} {
			if CapacityBits(d, surface.Steane, na) > CapacityBits(d, surface.Steane, nb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMaxQubitsByCapacityAnchors(t *testing.T) {
	// The paper's 4Kb anchors: RAM holds ~48 qubits, FIFO ~120 (§4.5). Our
	// integer-width model lands at 45 and 113 — same shape, and the solver
	// must be exactly inverse to CapacityBits.
	ram, ok := MaxQubitsByCapacity(DesignRAM, surface.Steane, 4096)
	if !ok || ram < 40 || ram > 55 {
		t.Errorf("RAM qubits at 4Kb = %d, want ≈48", ram)
	}
	fifo, ok := MaxQubitsByCapacity(DesignFIFO, surface.Steane, 4096)
	if !ok || fifo < 105 || fifo > 125 {
		t.Errorf("FIFO qubits at 4Kb = %d, want ≈120", fifo)
	}
	if fifo <= ram {
		t.Errorf("FIFO (%d) must beat RAM (%d)", fifo, ram)
	}
	// Solver inverse property.
	for _, d := range []Design{DesignRAM, DesignFIFO} {
		n, _ := MaxQubitsByCapacity(d, surface.Steane, 4096)
		if CapacityBits(d, surface.Steane, n) > 4096 {
			t.Errorf("%s: solver result %d does not fit", d, n)
		}
		if CapacityBits(d, surface.Steane, n+1) <= 4096 {
			t.Errorf("%s: solver result %d not maximal", d, n)
		}
	}
	// Unit cell: unbounded by capacity once the table fits.
	uc, ok := MaxQubitsByCapacity(DesignUnitCell, surface.Steane, 4096)
	if !ok || uc < 1<<30 {
		t.Errorf("unit cell capacity bound = %d, want unbounded", uc)
	}
	// Table too large for the budget.
	if _, ok := MaxQubitsByCapacity(DesignUnitCell, surface.Steane, 100); ok {
		t.Error("unit cell table fit in 100 bits")
	}
}

func TestQubitsServicedFigure11Shape(t *testing.T) {
	// Figure 11: RAM is capacity-limited and flat across channels; FIFO is
	// capacity-limited and ~2.5× RAM; unit cell is bandwidth-limited and
	// grows super-linearly with channels (6× from 1ch to 4ch).
	get := func(d Design, cfg jj.MemoryConfig) int {
		return QubitsServiced(d, surface.Steane, cfg, InstructionWindowNs)
	}
	cfgs := jj.Configs4Kb()
	ram1 := get(DesignRAM, cfgs[0])
	for _, cfg := range cfgs {
		if got := get(DesignRAM, cfg); got != ram1 {
			t.Errorf("RAM at %v = %d, want flat %d", cfg, got, ram1)
		}
	}
	fifo1 := get(DesignFIFO, cfgs[0])
	if fifo1 < 2*ram1 {
		t.Errorf("FIFO (%d) not ≥2× RAM (%d)", fifo1, ram1)
	}
	uc1 := get(DesignUnitCell, jj.OneChannel4Kb)
	uc4 := get(DesignUnitCell, jj.FourChannel1Kb)
	if r := float64(uc4) / float64(uc1); r < 5.9 || r > 6.1 {
		t.Errorf("unit cell 4ch/1ch = %d/%d = %.2f×, want ≈6×", uc4, uc1, r)
	}
	if uc1 <= fifo1 {
		t.Errorf("unit cell 1ch (%d) should already beat FIFO (%d)", uc1, fifo1)
	}
	// ~90× headline claim: unit cell at 4 channels vs RAM baseline.
	if ratio := float64(uc4) / float64(ram1); ratio < 50 || ratio > 120 {
		t.Errorf("unit-cell/RAM improvement = %.0f×, want ≈90×", ratio)
	}
}

func TestQubitsPerMCEInWindowShape(t *testing.T) {
	// Figure 16: longer T_ecc budgets service more qubits; deeper schedules
	// service fewer.
	cfg := jj.FourChannel1Kb
	steaneProjD := QubitsPerMCEInWindow(surface.Steane, cfg, 165)
	steaneExpS := QubitsPerMCEInWindow(surface.Steane, cfg, 2420)
	shorProjD := QubitsPerMCEInWindow(surface.Shor, cfg, 165)
	if steaneExpS <= steaneProjD {
		t.Errorf("slower tech should service more qubits: %d vs %d", steaneExpS, steaneProjD)
	}
	if shorProjD >= steaneProjD {
		t.Errorf("deeper Shor schedule should service fewer: %d vs %d", shorProjD, steaneProjD)
	}
	if steaneProjD <= 0 {
		t.Error("no qubits serviced at Projected_D")
	}
}

func TestOptimalConfigTable2(t *testing.T) {
	// Table 2 methodology: Steane and SC-13 → 4 channels; Shor → 2 channels
	// (its 300-instruction table needs a 2Kb bank). SC-17's table (544 bits)
	// does not fit a 512-bit bank under our no-striping rule, so it lands on
	// 4 channels where the paper reports 8 — the one documented divergence.
	want := map[string]int{"Steane": 4, "Shor": 2, "SC-13": 4, "SC-17": 4}
	for _, sched := range surface.Schedules() {
		cfg, err := OptimalConfig(sched)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name, err)
		}
		if cfg.Channels != want[sched.Name] {
			t.Errorf("%s optimal channels = %d, want %d", sched.Name, cfg.Channels, want[sched.Name])
		}
		if cfg.BankBits < CapacityBits(DesignUnitCell, sched, 0) {
			t.Errorf("%s: chosen bank %d too small for table", sched.Name, cfg.BankBits)
		}
	}
	// A table too large for any bank must error.
	huge := surface.Schedule{Name: "huge", Depth: 9, UnitCellInstrs: 5000, UnitCellQubits: 25}
	if _, err := OptimalConfig(huge); err == nil {
		t.Error("oversized table accepted")
	}
}

// TestStoreReplayEquivalence is the central architectural invariant: all
// three microcode organizations replay the byte-identical instruction stream
// that direct software compilation produces, for any mask.
func TestStoreReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sched := range []surface.Schedule{surface.Steane, surface.Shor} {
		for _, dims := range [][2]int{{5, 5}, {7, 9}, {9, 9}} {
			lat := surface.NewLattice(dims[0], dims[1])
			stores := []*Store{
				NewStore(DesignRAM, sched, lat),
				NewStore(DesignFIFO, sched, lat),
				NewStore(DesignUnitCell, sched, lat),
			}
			masks := []*surface.Mask{nil, surface.NewMask(lat)}
			rm := surface.NewMask(lat)
			for i := 0; i < lat.NumQubits(); i++ {
				if rng.Intn(5) == 0 {
					rm.SetDisabled(i, true)
				}
			}
			masks = append(masks, rm)
			for mi, mask := range masks {
				want := surface.CompileCycle(lat, sched, mask)
				for _, st := range stores {
					got := st.ReplayCycle(mask)
					if len(got) != len(want) {
						t.Fatalf("%s %s %v mask%d: depth mismatch", st.Design(), sched.Name, dims, mi)
					}
					for s := range want {
						if !want[s].Equal(got[s]) {
							t.Fatalf("%s %s %v mask%d step %d: replay diverges from compiler",
								st.Design(), sched.Name, dims, mi, s)
						}
					}
				}
			}
		}
	}
}

// TestReplayCacheTracksTheMask drives one store per design through a long
// random sequence of mask edits — single bits, regions, sets that change
// nothing, and swaps between mask objects, including a Clone that carries
// the same version and a CopyFrom from another mask, which a pooled MCE
// uses to rewind its mask to the rest state. Every replay must equal a fresh
// compilation under the current mask, whether the store re-expanded or
// replayed its cached words.
func TestReplayCacheTracksTheMask(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lat := surface.NewLattice(7, 9)
	for _, d := range Designs() {
		st := NewStore(d, surface.Steane, lat)
		masks := []*surface.Mask{surface.NewMask(lat), surface.NewMask(lat)}
		mask := masks[0]
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(16); {
			case op < 6:
				mask.SetDisabled(rng.Intn(lat.NumQubits()), rng.Intn(2) == 0)
			case op < 8:
				// A no-op set: the version must not move, and the cached
				// stream stays right.
				i := rng.Intn(lat.NumQubits())
				mask.SetDisabled(i, mask.Disabled(i))
			case op < 10:
				r, c := rng.Intn(lat.Rows), rng.Intn(lat.Cols)
				mask.SetRegion(r, c, r+rng.Intn(3), c+rng.Intn(3), rng.Intn(2) == 0)
			case op == 10:
				mask = masks[rng.Intn(len(masks))]
			case op == 11:
				mask = mask.Clone()
				masks[rng.Intn(len(masks))] = mask
			case op == 12:
				mask.CopyFrom(masks[rng.Intn(len(masks))])
			case op == 13:
				st.ReplayCycle(nil)
			}
			want := surface.CompileCycle(lat, surface.Steane, mask)
			got := st.ReplayCycle(mask)
			for s := range want {
				if !want[s].Equal(got[s]) {
					t.Fatalf("%s step %d sub-cycle %d: replay diverges from compilation under the current mask", d, step, s)
				}
			}
		}
	}
}

// TestReplayCycleDoesNotAllocate pins every design's replay to zero
// allocations, both when the mask is unchanged (the cached words) and when
// every call flips a mask bit (a full re-expansion into the store's words).
func TestReplayCycleDoesNotAllocate(t *testing.T) {
	lat := surface.NewLattice(9, 19)
	for _, d := range Designs() {
		st := NewStore(d, surface.Steane, lat)
		mask := surface.NewMask(lat)
		if a := testing.AllocsPerRun(50, func() { st.ReplayCycle(mask) }); a != 0 {
			t.Errorf("%s, unchanged mask: %v allocs/op, want 0", d, a)
		}
		i := 0
		if a := testing.AllocsPerRun(50, func() {
			i++
			mask.SetDisabled(i%lat.NumQubits(), i%2 == 0)
			st.ReplayCycle(mask)
		}); a != 0 {
			t.Errorf("%s, changed mask: %v allocs/op, want 0", d, a)
		}
	}
}

func TestStoreBitsStreamedAccounting(t *testing.T) {
	lat := surface.NewLattice(5, 5)
	n := lat.NumQubits()
	ram := NewStore(DesignRAM, surface.Steane, lat)
	fifo := NewStore(DesignFIFO, surface.Steane, lat)
	uc := NewStore(DesignUnitCell, surface.Steane, lat)
	for i := 0; i < 3; i++ {
		ram.ReplayCycle(nil)
		fifo.ReplayCycle(nil)
		uc.ReplayCycle(nil)
	}
	wantFIFO := uint64(3 * n * surface.Steane.Depth * isa.OpcodeBits)
	if fifo.BitsStreamed() != wantFIFO {
		t.Errorf("FIFO streamed %d bits, want %d", fifo.BitsStreamed(), wantFIFO)
	}
	if uc.BitsStreamed() != wantFIFO {
		t.Errorf("unit cell streamed %d bits, want %d (same wire traffic as FIFO)", uc.BitsStreamed(), wantFIFO)
	}
	if ram.BitsStreamed() <= wantFIFO {
		t.Errorf("RAM streamed %d bits, want > FIFO's %d (address overhead)", ram.BitsStreamed(), wantFIFO)
	}
}

func TestStoreCapacityMatchesModel(t *testing.T) {
	lat := surface.NewLattice(5, 5)
	for _, d := range Designs() {
		st := NewStore(d, surface.Steane, lat)
		if got := st.CapacityBits(); got != CapacityBits(d, surface.Steane, lat.NumQubits()) {
			t.Errorf("%s: store capacity %d disagrees with model", d, got)
		}
		if st.Schedule().Name != "Steane" || st.Lattice() != lat {
			t.Errorf("%s: accessors wrong", d)
		}
	}
}

func TestDesignStrings(t *testing.T) {
	if DesignRAM.String() != "RAM" || DesignFIFO.String() != "FIFO" || DesignUnitCell.String() != "Unit-cell" {
		t.Error("design names wrong")
	}
	if Design(9).String() == "" {
		t.Error("unknown design String empty")
	}
	if len(Designs()) != 3 {
		t.Error("Designs() incomplete")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	expect := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expect("negative n", func() { CapacityBits(DesignRAM, surface.Steane, -1) })
	expect("unknown design capacity", func() { CapacityBits(Design(7), surface.Steane, 5) })
	expect("unknown design store", func() { NewStore(Design(7), surface.Steane, surface.NewLattice(3, 3)) })
}

// BenchmarkReplayCycleUnitCell9x9 flips one mask bit per iteration, so it
// measures the unit-cell expansion rather than a replay of cached words.
func BenchmarkReplayCycleUnitCell9x9(b *testing.B) {
	lat := surface.NewLattice(9, 9)
	st := NewStore(DesignUnitCell, surface.Steane, lat)
	mask := surface.NewMask(lat)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mask.SetDisabled(0, i%2 == 0)
		st.ReplayCycle(mask)
	}
}
