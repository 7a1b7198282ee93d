package mce

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"quest/internal/isa"
)

// scanOracle is the issue stage issueFrom replaced: it holds both queues as
// plain slices in program order and scans them from the front every cycle,
// compacting the scanned prefix in place. The differential tests hold
// issueLogical's per-key heads to it.
type scanOracle struct {
	replayQ, buffer []isa.LogicalInstr
}

// issue is issueLogical over the oracle's slices, on m's patch state.
func (o *scanOracle) issue(m *MCE, rep *CycleReport) []isa.MicroOp {
	clear(m.claimed)
	m.overlay = m.overlay[:0]
	st := issueState{}
	for _, busy := range m.busyPatch {
		if busy {
			st.blocked++
		}
	}
	o.replayQ = scanFrom(m, o.replayQ, &st, rep)
	o.buffer = scanFrom(m, o.buffer, &st, rep)
	return m.overlay
}

// scanFrom scans queue in program order, issuing what it can, and returns
// the queue without the issued instructions.
func scanFrom(m *MCE, queue []isa.LogicalInstr, st *issueState, rep *CycleReport) []isa.LogicalInstr {
	kept, i := 0, 0
	for ; i < len(queue) && st.issued < issueWidth && st.blocked < len(m.claimed); i++ {
		in := queue[i]
		p1, p2 := int(in.Target), -1
		if in.Op == isa.LCNOT {
			p2 = int(in.Arg)
		}
		if m.claimed[p1] || (p2 >= 0 && m.claimed[p2]) {
			queue[kept] = in
			kept++
			continue
		}
		if !m.tryIssue(in, rep) {
			if !m.busyPatch[p1] {
				st.blocked++
			}
			m.claimed[p1] = true
			queue[kept] = in
			kept++
			continue
		}
		m.claimed[p1] = true
		st.blocked++
		if p2 >= 0 && p2 != p1 {
			m.claimed[p2] = true
			st.blocked++
		}
		st.issued++
	}
	removed := i - kept
	copy(queue[removed:i], queue[:kept])
	return queue[removed:]
}

// referenceIssue is the map-based issue loop of the original engine: it
// scans both queues to the end every cycle, with neither the claim count's
// early exit nor any per-key head. It holds scanOracle's early exit to a scan
// of the whole queue.
type referenceIssue struct {
	replayQ, buffer []isa.LogicalInstr
}

func (o *referenceIssue) issue(m *MCE, rep *CycleReport) []isa.MicroOp {
	m.overlay = m.overlay[:0]
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
			if !m.tryIssue(in, rep) {
				rest = append(rest, in)
				usedPatch[p1] = true
				continue
			}
			usedPatch[p1] = true
			if p2 >= 0 {
				usedPatch[p2] = true
			}
			issued++
		}
		*queue = rest
	}
	take(&o.replayQ)
	take(&o.buffer)
	return m.overlay
}

// pending lists q's queued instructions in program order.
func pending(q *issueQueue) []isa.LogicalInstr {
	var all []queued
	for _, f := range q.fifos {
		all = append(all, f.buf[f.head:]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]isa.LogicalInstr, len(all))
	for i, e := range all {
		out[i] = e.in
	}
	return out
}

// randomInstr draws an instruction for a tile of the given patch count:
// frame Paulis and transverse gates, T gates (which stall without magic
// states), and CNOTs across patches (which hold both patches under a braid
// for several cycles).
func randomInstr(rng *rand.Rand, patches int) isa.LogicalInstr {
	ops := []isa.LogicalOpcode{isa.LX, isa.LZ, isa.LH, isa.LS, isa.LT, isa.LT,
		isa.LPrep0, isa.LMaskGrow, isa.LCNOT, isa.LCNOT, isa.LCNOT}
	if patches == 1 {
		ops = ops[:len(ops)-3]
	}
	in := isa.LogicalInstr{Op: ops[rng.Intn(len(ops))], Target: uint8(rng.Intn(patches))}
	if in.Op == isa.LCNOT {
		in.Arg = uint8((int(in.Target) + 1 + rng.Intn(patches-1)) % patches)
	}
	return in
}

// checkIssueMatchesScan runs issueLogical on one engine, the scan oracle on
// a twin and the reference loop on a third, for the given cycles: a random
// cached body replayed 1–3 times, the buffer topped up with more ready work
// than issueWidth, a magic state now and then, and the patches whose bit is
// set in busy held busy for the whole run. Every cycle's issued overlay,
// retirements, T stalls and braids, and the residual order of both queues,
// must agree across all three.
func checkIssueMatchesScan(t *testing.T, rng *rand.Rand, patches int, busy uint8, cycles int) {
	t.Helper()
	got, want, full := newMCE(t, patches), newMCE(t, patches), newMCE(t, patches)
	var oracle scanOracle
	var ref referenceIssue
	for p := 0; p < patches && p < 8; p++ {
		if busy>>p&1 == 1 {
			got.busyPatch[p], want.busyPatch[p], full.busyPatch[p] = true, true, true
		}
	}
	var body []isa.LogicalInstr
	for i := 2 + rng.Intn(12); i > 0; i-- {
		body = append(body, randomInstr(rng, patches))
	}
	if err := got.LoadCacheSlot(0, body); err != nil {
		t.Fatal(err)
	}
	reps := 1 + rng.Intn(3)
	if err := got.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: uint8(reps)}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < reps; r++ {
		oracle.replayQ = append(oracle.replayQ, body...)
		ref.replayQ = append(ref.replayQ, body...)
	}
	for cycle := 0; cycle < cycles; cycle++ {
		for i := rng.Intn(2 * issueWidth); i > 0; i-- {
			in := randomInstr(rng, patches)
			if err := got.Enqueue(in); err != nil {
				t.Fatal(err)
			}
			oracle.buffer = append(oracle.buffer, in)
			ref.buffer = append(ref.buffer, in)
		}
		if rng.Intn(8) == 0 {
			got.SupplyMagicStates(1)
			want.SupplyMagicStates(1)
			full.SupplyMagicStates(1)
		}
		var rg, rw, rf CycleReport
		got.stepBraids(&rg)
		want.stepBraids(&rw)
		full.stepBraids(&rf)
		og := got.issueLogical(&rg)
		ow := oracle.issue(want, &rw)
		of := ref.issue(full, &rf)
		got.completeMeasurements(&rg)
		want.completeMeasurements(&rw)
		full.completeMeasurements(&rf)
		if !slices.Equal(ow, of) || rw.LogicalRetired != rf.LogicalRetired ||
			want.stalledT != full.stalledT || !slices.EqualFunc(want.braids, full.braids, sameBraid) ||
			!slices.Equal(oracle.replayQ, ref.replayQ) || !slices.Equal(oracle.buffer, ref.buffer) {
			t.Fatalf("%d patches, cycle %d: the scan oracle issued %v retired %d stalls %d, left replay %v buffer %v; the whole-queue reference %v %d %d, %v %v",
				patches, cycle, ow, rw.LogicalRetired, want.stalledT, oracle.replayQ, oracle.buffer,
				of, rf.LogicalRetired, full.stalledT, ref.replayQ, ref.buffer)
		}
		if !slices.Equal(og, ow) || rg.LogicalRetired != rw.LogicalRetired ||
			got.stalledT != want.stalledT || !slices.EqualFunc(got.braids, want.braids, sameBraid) {
			t.Fatalf("%d patches, cycle %d: issued overlay %v retired %d stalls %d braids %v; scan %v %d %d %v",
				patches, cycle, og, rg.LogicalRetired, got.stalledT, got.braids,
				ow, rw.LogicalRetired, want.stalledT, want.braids)
		}
		gr, gb := pending(&got.replayQ), pending(&got.buffer)
		if !slices.Equal(gr, oracle.replayQ) || !slices.Equal(gb, oracle.buffer) {
			t.Fatalf("%d patches, cycle %d: residual queues\n replay %v\n buffer %v\nscan\n replay %v\n buffer %v",
				patches, cycle, gr, gb, oracle.replayQ, oracle.buffer)
		}
		if got.replayQ.n != len(gr) || got.buffer.n != len(gb) {
			t.Fatalf("%d patches, cycle %d: queue counts %d/%d, queued %d/%d",
				patches, cycle, got.replayQ.n, got.buffer.n, len(gr), len(gb))
		}
	}
}

func sameBraid(a, b braid) bool {
	return a.ctrl == b.ctrl && a.tgt == b.tgt && slices.Equal(a.steps, b.steps)
}

// TestIssueOrderMatchesReference pins issue order to the whole-queue scan:
// on the 3-patch tile patch claims end the scan, on the 6-patch tile
// issueWidth does.
func TestIssueOrderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkIssueMatchesScan(t, rand.New(rand.NewSource(seed)), 3+3*int(seed%2), 0, 40)
	}
}

// FuzzIssueMatchesScan is TestIssueOrderMatchesReference over random
// queues, patch counts and patches held busy throughout.
func FuzzIssueMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(7), uint8(5), uint8(0b101))
	f.Add(int64(3), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, patchesRaw, busy uint8) {
		checkIssueMatchesScan(t, rand.New(rand.NewSource(seed)), 1+int(patchesRaw%7), busy, 30)
	})
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
