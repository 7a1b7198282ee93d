package mce

import (
	"reflect"
	"testing"

	"quest/internal/distill"
	"quest/internal/isa"
	"quest/internal/probe"
)

// distillBody projects one distillation round onto a tile of the given
// patch count the way the machine's cached distillation run does: targets
// fold onto the patches, single-patch gates become frame Paulis, and a CNOT
// whose patches fold together becomes an LZ.
func distillBody(patches int) []isa.LogicalInstr {
	var body []isa.LogicalInstr
	for _, in := range distill.RoundCircuit() {
		mapped := isa.LogicalInstr{Op: in.Op, Target: in.Target % uint8(patches), Arg: in.Arg % uint8(patches)}
		switch {
		case in.Op != isa.LCNOT:
			mapped = isa.LogicalInstr{Op: isa.LX, Target: mapped.Target}
		case mapped.Target == mapped.Arg:
			mapped = isa.LogicalInstr{Op: isa.LZ, Target: mapped.Target}
		}
		body = append(body, mapped)
	}
	return body
}

// queueDistill loads the distillation body into cache slot 0 and queues
// replays of it in runs of at most 63.
func queueDistill(t *testing.T, m *MCE, replays int) {
	t.Helper()
	if err := m.LoadCacheSlot(0, distillBody(m.Layout().NumPatches())); err != nil {
		t.Fatal(err)
	}
	for replays > 0 {
		n := min(replays, 63)
		if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: uint8(n)}); err != nil {
			t.Fatal(err)
		}
		replays -= n
	}
}

// TestIssueScanIsBoundedPerCycle: the issue stage looks at a bounded number
// of queue heads per cycle — at most every key of both queues — however
// long the replay queue is. The whole-queue scan it replaced examined up to
// 570 instructions per cycle at 50 replays and 4,563 at 400.
func TestIssueScanIsBoundedPerCycle(t *testing.T) {
	const patches = 2
	bound := uint64(2 * patches * (patches + 1))
	var worst [2]uint64
	for i, replays := range []int{50, 400} {
		m := newMCE(t, patches)
		m.StepCycle()
		queueDistill(t, m, replays)
		for c := 0; m.PendingLogical() > 0; c++ {
			if c > 100*replays {
				t.Fatalf("%d replays: not drained after %d cycles", replays, c)
			}
			before := m.examined
			m.StepCycle()
			worst[i] = max(worst[i], m.examined-before)
		}
		if _, retired, _, _, _ := m.Stats(); retired != uint64(replays*len(distillBody(patches))) {
			t.Errorf("%d replays: retired %d, want %d", replays, retired, replays*len(distillBody(patches)))
		}
	}
	if worst[0] > bound || worst[1] > bound || worst[1] > worst[0] {
		t.Errorf("queue heads examined per cycle: %d at 50 replays, %d at 400; want ≤ %d at both, not growing",
			worst[0], worst[1], bound)
	}
}

// TestStepCycleDoesNotAllocate pins a warmed tile's cycle to zero
// allocations while it replays the cached distillation body: the QECC
// replay, the issue stage, braids, frame updates and the local decode.
func TestStepCycleDoesNotAllocate(t *testing.T) {
	m := newMCE(t, 2)
	m.StepCycle()
	queueDistill(t, m, 63)
	for c := 0; c < 300; c++ {
		m.StepCycle()
	}
	if a := testing.AllocsPerRun(300, func() { m.StepCycle() }); a != 0 {
		t.Errorf("StepCycle: %v allocs/op, want 0", a)
	}
	if m.PendingLogical() == 0 {
		t.Fatal("the body drained during the measurement; queue more replays")
	}
}

// TestOverlayLeavesStoreWordsUntouched: the logical overlay is laid over a
// copy of the first sub-cycle word. Writing it into the store's own words
// would replay it on every later cycle with the same mask.
func TestOverlayLeavesStoreWordsUntouched(t *testing.T) {
	m := newMCE(t, 2)
	m.StepCycle()
	var before []isa.VLIW
	for _, w := range m.store.ReplayCycle(m.mask) {
		before = append(before, w.Clone())
	}
	q := m.patch[0].logicalX[0] // a data qubit
	if op := before[0].Ops[q]; op != isa.OpIdle {
		t.Fatalf("data qubit %d runs %s in the first sub-cycle; pick an idle slot", q, op)
	}
	m.replay([]isa.MicroOp{{Op: isa.OpX, Qubit: q, Pair: -1}})
	for s, w := range m.store.ReplayCycle(m.mask) {
		if !reflect.DeepEqual(w, before[s]) {
			t.Fatalf("sub-cycle %d of the store's stream changed under the overlay", s)
		}
	}
}

// TestResetAfterMaskedTrialMatchesFresh: a pooled engine whose last trial
// ended with the mask changed (patch 0 masked for a transverse prep) must,
// after Reset, run like a fresh engine. Reset rewrites the same mask object
// back to the rest state, so the store's cached stream for the first trial
// must not replay into the second.
func TestResetAfterMaskedTrialMatchesFresh(t *testing.T) {
	const seed = 9
	pooled := newMCE(t, 2)
	if err := pooled.Enqueue(isa.LogicalInstr{Op: isa.LPrep0, Target: 0}); err != nil {
		t.Fatal(err)
	}
	pooled.StepCycle()
	pooled.Reset(seed, probe.Probes{})
	fresh := newMCE(t, 2, func(c *Config) { c.Seed = seed })
	for _, m := range []*MCE{pooled, fresh} {
		if err := m.Enqueue(isa.LogicalInstr{Op: isa.LPrep0, Target: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 4; c++ {
		rp, rf := pooled.StepCycle(), fresh.StepCycle()
		if !reflect.DeepEqual(rp, rf) {
			t.Fatalf("cycle %d: pooled report %+v, fresh %+v", c, rp, rf)
		}
		if !reflect.DeepEqual(pooled.pendingSynd, fresh.pendingSynd) || !reflect.DeepEqual(pooled.pendingData, fresh.pendingData) {
			t.Fatalf("cycle %d: pooled and fresh measurements differ", c)
		}
	}
}
