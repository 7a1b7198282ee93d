package mce

import (
	"math/rand"
	"reflect"
	"testing"

	"quest/internal/isa"
)

// referenceIssue is the map-based issue loop issueLogical replaced: it
// rebuilds both queues every cycle and scans them to the end. It is the
// reference TestIssueOrderMatchesReference holds issueLogical to.
func referenceIssue(m *MCE, rep *CycleReport) []isa.MicroOp {
	var overlay []isa.MicroOp
	issued := 0
	usedPatch := map[int]bool{}
	take := func(queue *[]isa.LogicalInstr) {
		var rest []isa.LogicalInstr
		for _, in := range *queue {
			if issued >= issueWidth {
				rest = append(rest, in)
				continue
			}
			p1, p2 := int(in.Target), -1
			if in.Op == isa.LCNOT {
				p2 = int(in.Arg)
			}
			if usedPatch[p1] || (p2 >= 0 && usedPatch[p2]) {
				rest = append(rest, in)
				continue
			}
			ok, ops := m.tryIssue(in, rep)
			if !ok {
				rest = append(rest, in)
				usedPatch[p1] = true
				continue
			}
			usedPatch[p1] = true
			if p2 >= 0 {
				usedPatch[p2] = true
			}
			overlay = append(overlay, ops...)
			issued++
		}
		*queue = rest
	}
	take(&m.replayQ)
	take(&m.buffer)
	return overlay
}

// randomInstr draws an instruction for a tile of the given patch count:
// frame Paulis and transverse gates, T gates (which stall without magic
// states), and CNOTs across patches (which hold both patches under a braid
// for several cycles).
func randomInstr(rng *rand.Rand, patches int) isa.LogicalInstr {
	ops := []isa.LogicalOpcode{isa.LX, isa.LZ, isa.LH, isa.LS, isa.LT, isa.LT,
		isa.LPrep0, isa.LMaskGrow, isa.LCNOT, isa.LCNOT, isa.LCNOT}
	in := isa.LogicalInstr{Op: ops[rng.Intn(len(ops))], Target: uint8(rng.Intn(patches))}
	if in.Op == isa.LCNOT {
		in.Arg = uint8((int(in.Target) + 1 + rng.Intn(patches-1)) % patches)
	}
	return in
}

// TestIssueOrderMatchesReference pins issue order: over random replay and
// buffer queues, every cycle's issued overlay, retirements and T stalls, and
// the residual order of both queues, equal the reference loop's. On the
// 3-patch tile patch claims end the scan; on the 6-patch tile, issueWidth
// does.
func TestIssueOrderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		patches := 3 + 3*int(seed%2)
		got, want := newMCE(t, patches), newMCE(t, patches)
		var body []isa.LogicalInstr
		for i := 2 + rng.Intn(12); i > 0; i-- {
			body = append(body, randomInstr(rng, patches))
		}
		run := isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: uint8(1 + rng.Intn(3))}
		for _, m := range []*MCE{got, want} {
			if err := m.LoadCacheSlot(0, body); err != nil {
				t.Fatal(err)
			}
			if err := m.Enqueue(run); err != nil {
				t.Fatal(err)
			}
		}
		for cycle := 0; cycle < 40; cycle++ {
			// Top up the buffer with more ready work than issueWidth, and
			// now and then hand both engines a magic state.
			for i := rng.Intn(2 * issueWidth); i > 0; i-- {
				in := randomInstr(rng, patches)
				if err := got.Enqueue(in); err != nil {
					t.Fatal(err)
				}
				if err := want.Enqueue(in); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(8) == 0 {
				got.SupplyMagicStates(1)
				want.SupplyMagicStates(1)
			}
			var rg, rw CycleReport
			got.stepBraids(&rg)
			want.stepBraids(&rw)
			og := got.issueLogical(&rg)
			ow := referenceIssue(want, &rw)
			got.completeMeasurements(&rg)
			want.completeMeasurements(&rw)
			if !reflect.DeepEqual(og, ow) || rg.LogicalRetired != rw.LogicalRetired ||
				got.stalledT != want.stalledT || len(got.braids) != len(want.braids) {
				t.Fatalf("seed %d (%d patches) cycle %d: issued overlay %v retired %d stalls %d braids %d; reference %v %d %d %d",
					seed, patches, cycle, og, rg.LogicalRetired, got.stalledT, len(got.braids),
					ow, rw.LogicalRetired, want.stalledT, len(want.braids))
			}
			if !sameQueue(got.replayQ, want.replayQ) || !sameQueue(got.buffer, want.buffer) {
				t.Fatalf("seed %d cycle %d: residual queues\n replay %v\n buffer %v\nreference\n replay %v\n buffer %v",
					seed, cycle, got.replayQ, got.buffer, want.replayQ, want.buffer)
			}
		}
	}
}

func sameQueue(a, b []isa.LogicalInstr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIssueLogicalDoesNotAllocate pins issueLogical's own bookkeeping (patch
// claims, queue compaction) to zero allocations on a cycle that issues
// nothing: every patch's head-of-line T gate stalls without magic states.
// What issued instructions allocate (frame corrections, the transverse µop
// overlay) is tryIssue's work, not the scan's.
func TestIssueLogicalDoesNotAllocate(t *testing.T) {
	m := newMCE(t, 3)
	m.StepCycle()
	for i := 0; i < 8; i++ {
		for p := uint8(0); p < 3; p++ {
			if err := m.Enqueue(isa.LogicalInstr{Op: isa.LT, Target: p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		var rep CycleReport
		m.issueLogical(&rep)
	}); a != 0 {
		t.Errorf("issueLogical: %v allocs/op, want 0", a)
	}
	if _, _, _, _, stalls := m.Stats(); stalls != 3*101 {
		t.Errorf("T stalls = %d, want 3 per cycle (the scan stops once every patch is claimed)", stalls)
	}
}

// TestOutOfTilePatchesRejected: every instruction that can reach the issue
// queues names a patch of this tile, so the per-patch claim flags cover it.
// A cache body staged for a larger tile loads, but running it is refused.
func TestOutOfTilePatchesRejected(t *testing.T) {
	m := newMCE(t, 2)
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LMaskGrow, Target: 2}); err == nil {
		t.Error("mask instruction outside tile accepted")
	}
	body := []isa.LogicalInstr{{Op: isa.LX, Target: 0}, {Op: isa.LPrepPlus, Target: 2}}
	if err := m.LoadCacheSlot(1, body); err != nil {
		t.Fatalf("staging a body for a larger tile: %v", err)
	}
	if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: 1}); err == nil {
		t.Error("cache run with a patch outside the tile accepted")
	}
	if m.PendingLogical() != 0 {
		t.Errorf("rejected instructions queued: %d pending", m.PendingLogical())
	}
}
