// Package mce implements the Micro-coded Control Engine of §4: the per-tile
// hardware unit that replays QECC microcode autonomously, executes logical
// instructions delivered by the master controller through its instruction
// pipeline, arbitrates between the two via the mask table, performs local
// error decoding with a lookup table, and (§5.3) replays cached logical
// instruction loops — the distillation bodies — from its software-managed
// instruction cache.
//
// The model is cycle-stepped at QECC-cycle granularity: StepCycle replays
// one complete error-correction cycle (Depth lock-step sub-cycles), overlays
// any due logical work, fires the execution unit, collects syndromes and
// decodes locally. No instruction ever reaches the quantum substrate from
// anywhere but the microcode and logical-µop pipelines, and the QECC cadence
// never stalls on logical traffic — the two invariants the paper's
// determinism argument rests on.
package mce

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"quest/internal/awg"
	"quest/internal/bwprofile"
	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/decoder"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/metrics"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/probe"
	"quest/internal/surface"
	"quest/internal/tracing"
)

// instr bundles the MCE's instruments, resolved once per engine so StepCycle
// never touches the registry lock.
type instr struct {
	cycles           *metrics.Counter
	microOps         *metrics.Counter
	logicalRetired   *metrics.Counter
	logicalEnqueued  *metrics.Counter
	defectsLocal     *metrics.Counter
	defectsEscalated *metrics.Counter
	cacheHits        *metrics.Counter
	cacheLoads       *metrics.Counter
	stalledT         *metrics.Counter
	cycleNs          *metrics.Histogram
	bufferOccupancy  *metrics.Gauge
}

func newInstr(r *metrics.Registry) *instr {
	return &instr{
		cycles:           r.Counter("mce.cycles"),
		microOps:         r.Counter("mce.microops"),
		logicalRetired:   r.Counter("mce.logical.retired"),
		logicalEnqueued:  r.Counter("mce.logical.enqueued"),
		defectsLocal:     r.Counter("mce.defects.local"),
		defectsEscalated: r.Counter("mce.defects.escalated"),
		cacheHits:        r.Counter("mce.cache.hits"),
		cacheLoads:       r.Counter("mce.cache.loads"),
		stalledT:         r.Counter("mce.stalled.t"),
		cycleNs:          r.Histogram("mce.cycle.ns", nil),
		bufferOccupancy:  r.Gauge("mce.buffer.occupancy"),
	}
}

// Config assembles an MCE.
type Config struct {
	Design   microcode.Design
	Schedule surface.Schedule
	Layout   compiler.Layout
	// Noise is the substrate noise model; nil means noiseless.
	Noise *noise.Model
	// Seed drives both the substrate's measurement randomness and the noise
	// injector, making whole-machine runs reproducible.
	Seed int64
	// CacheSlots is the number of logical-instruction cache slots (0
	// disables the cache).
	CacheSlots int
	// Timing, when non-nil, enables wall-clock accounting with the given
	// per-operation latencies (Table 1).
	Timing *awg.Timing
	// BufferCapacity bounds the instruction buffer (0 = unbounded). A full
	// buffer rejects Enqueue; the master's flow control must respect
	// FreeBufferSlots. QECC replay is never affected — that is the point.
	BufferCapacity int
	// TileID labels this engine's trace track (the master's tile index);
	// purely observational.
	TileID int
	// Probes are the observers the engine records into: instruments
	// (Metrics), per-cycle busy/stall/idle spans, cache fills and replays
	// and local decode activity (Tracer), defect births of the syndrome
	// history, one collector per lattice shape so same-shape tiles share a
	// grid (Heat), and cache-replayed instructions — the traffic the
	// MCE-local cache keeps off the global bus — into the bandwidth profile
	// (BW).
	probe.Probes
}

// CycleReport summarizes one StepCycle.
type CycleReport struct {
	Cycle            int
	MicroOpsIssued   int
	LogicalRetired   int
	Measurements     int
	DefectsLocal     int // defects resolved by the LUT decoder
	DefectsEscalated []decoder.Defect
	LogicalResults   []LogicalResult
}

// LogicalResult is a completed logical measurement.
type LogicalResult struct {
	Patch int
	Bit   int
}

// braid tracks an in-flight logical CNOT: remaining mask steps and the
// patches it occupies.
type braid struct {
	steps     []surface.BraidStep
	ctrl, tgt int
}

// patchSupport holds one patch's qubit lists, computed once per layout:
// every qubit, the ancillas, and the logical-X and logical-Z supports.
type patchSupport struct {
	qubits, ancillas, logicalX, logicalZ []int
}

// MCE is one engine instance.
type MCE struct {
	cfg   Config
	store *microcode.Store
	mask  *surface.Mask
	// baseMask is the rest state: the gap sites between patches are
	// permanently masked so each patch is an isolated planar code (gap
	// stabilizers would anticommute with the per-patch logical operators).
	// Braids temporarily deviate from it and restore it.
	baseMask *surface.Mask

	tableau *clifford.Tableau
	inj     *noise.Injector
	unit    *awg.ExecutionUnit

	hist  *decoder.SyndromeHistory
	local *decoder.LocalDecoder
	frame *decoder.PauliFrame

	// Instruction pipeline.
	buffer    issueQueue
	cache     map[int][]isa.LogicalInstr
	replayQ   issueQueue
	braids    []braid
	busyPatch []bool // patches occupied by an in-flight braid
	// claimed marks the patches issueLogical has claimed this cycle (issued
	// to, or blocked in program order); scratch reused every cycle.
	claimed []bool
	// heads is issueFrom's scratch: the queue's FIFO heads.
	heads []issueHead
	// examined counts the queue heads issueFrom has looked at, so tests can
	// bound the issue stage's work per cycle.
	examined uint64
	// overlay collects the cycle's logical µops; w0 is the scratch copy of
	// the first sub-cycle word they are applied to, so the store's replayed
	// words stay untouched.
	overlay []isa.MicroOp
	w0      isa.VLIW

	// Trial-independent per-layout tables: each patch's qubit lists; the
	// braid walk of every (ctrl, tgt) CNOT, at ctrl·patches + tgt; and the
	// µop overlay of every transverse instruction, at
	// patch·NumLogicalOpcodes + opcode. The last two fill on first use.
	patch      []patchSupport
	braidSteps [][]surface.BraidStep
	transverse [][]isa.MicroOp

	magicStates int

	// reg is the registry in is resolved against; Reset re-resolves only
	// when the bound registry changes, so pooled trials pay no lookups.
	reg *metrics.Registry
	in  *instr
	tr  *tracing.Tracer
	bw  *bwprofile.Recorder
	tid int

	cycle          int
	microOps       uint64
	logicalRetired uint64
	cacheHits      uint64
	cacheLoads     uint64
	stalledT       uint64

	// syndrome bits of the in-flight cycle, keyed by ancilla.
	pendingSynd map[int]int
	// data-qubit measurement bits of the in-flight cycle.
	pendingData map[int]int
	// patches with an outstanding transverse measurement this cycle; the
	// value records the basis (true = X).
	measuring map[int]bool
	// regions masked for a single-cycle transverse op, restored after the
	// cycle's stream has been built.
	pendingUnmask []region
}

// New builds an MCE per the config: the trial-independent structures — the
// programmed microcode store, the local decoder's lookup tables, the
// tableau's row storage and the rest-state mask — then Reset binds the
// seed and the observers. From then on QECC replays without external
// instruction supply.
func New(cfg Config) *MCE {
	if cfg.CacheSlots < 0 {
		panic(fmt.Sprintf("mce: negative cache slots %d", cfg.CacheSlots))
	}
	lat := cfg.Layout.Lat
	patches := cfg.Layout.NumPatches()
	m := &MCE{
		cfg:   cfg,
		store: microcode.NewStore(cfg.Design, cfg.Schedule, lat),

		tableau: clifford.New(lat.NumQubits(), nil),

		hist:  decoder.NewHistory(lat),
		local: decoder.NewLocalDecoder(lat),
		frame: decoder.NewPauliFrame(),

		buffer:    newIssueQueue(patches),
		cache:     make(map[int][]isa.LogicalInstr),
		replayQ:   newIssueQueue(patches),
		busyPatch: make([]bool, patches),
		claimed:   make([]bool, patches),
		w0:        isa.NewVLIW(lat.NumQubits()),

		patch:      make([]patchSupport, patches),
		braidSteps: make([][]surface.BraidStep, patches*patches),
		transverse: make([][]isa.MicroOp, patches*isa.NumLogicalOpcodes),

		tid: cfg.TileID,

		pendingSynd: make(map[int]int),
		pendingData: make(map[int]int),
		measuring:   make(map[int]bool),
	}
	// Mask everything outside the patches: the inter-patch gap columns are
	// not part of any code and must not run syndrome extraction.
	inPatch := make([]bool, lat.NumQubits())
	for p := range m.patch {
		ps := &m.patch[p]
		ps.qubits = cfg.Layout.PatchQubits(p)
		for _, q := range ps.qubits {
			inPatch[q] = true
			if lat.RoleOf(q) != surface.RoleData {
				ps.ancillas = append(ps.ancillas, q)
			}
		}
		ps.logicalX = cfg.Layout.PatchLogicalX(p)
		ps.logicalZ = cfg.Layout.PatchLogicalZ(p)
	}
	m.baseMask = surface.NewMask(lat)
	for q, in := range inPatch {
		if !in {
			m.baseMask.SetDisabled(q, true)
		}
	}
	m.mask = m.baseMask.Clone()
	m.Reset(cfg.Seed, cfg.Probes)
	return m
}

// Reset returns the engine to its just-built state and binds the per-trial
// inputs: a seed for the substrate and the noise injector, and the
// observers (a nil Metrics or Tracer resolves to the package defaults). New
// ends here, so construction and pooled reuse share one path. The
// trial-independent structures are kept; everything mutable is rewound.
// Monte-Carlo trial bodies pool MCEs (via Machine pooling) so per-trial
// construction cost is paid once per worker instead of once per trial; the
// pooled-vs-fresh equivalence is pinned by TestMachineResetMatchesFresh.
func (m *MCE) Reset(seed int64, p probe.Probes) {
	reg := p.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	if reg != m.reg {
		m.reg, m.in = reg, newInstr(reg)
	}
	m.tr = p.Tracer
	if m.tr == nil {
		m.tr = tracing.Default
	}
	m.bw = p.BW
	lat := m.cfg.Layout.Lat
	var heat *heatmap.Collector
	if p.Heat != nil {
		heat = p.Heat.Collector(heatmap.GridName(lat.Rows, lat.Cols), lat.Rows, lat.Cols)
	}
	m.hist.Reset()
	m.hist.SetHeat(heat)

	m.tableau.SetRNG(rand.New(rand.NewSource(seed)))
	m.tableau.Reset()
	m.mask.CopyFrom(m.baseMask)
	m.inj = nil
	if m.cfg.Noise != nil {
		m.inj = noise.NewInjector(*m.cfg.Noise, seed+1)
	}
	m.store.ResetStreamed()
	m.frame.Reset()

	m.buffer.reset()
	clear(m.cache)
	m.replayQ.reset()
	m.braids = m.braids[:0]
	clear(m.busyPatch)
	m.magicStates = 0

	m.cycle = 0
	m.microOps, m.logicalRetired = 0, 0
	m.cacheHits, m.cacheLoads, m.stalledT = 0, 0, 0

	clear(m.pendingSynd)
	clear(m.pendingData)
	clear(m.measuring)
	m.pendingUnmask = m.pendingUnmask[:0]

	m.unit = awg.New(m.tableau, m.inj)
	m.unit.MeasSink = m.sinkMeasurement
	if m.cfg.Timing != nil {
		m.unit.SetTiming(*m.cfg.Timing)
	}
}

// ElapsedNs returns the wall-clock time of all executed sub-cycles (zero
// unless the config carried a Timing).
func (m *MCE) ElapsedNs() float64 { return m.unit.ElapsedNs() }

// Layout returns the MCE's tile layout.
func (m *MCE) Layout() compiler.Layout { return m.cfg.Layout }

// Tableau exposes the substrate for verification in tests.
func (m *MCE) Tableau() *clifford.Tableau { return m.tableau }

// Frame exposes the Pauli frame for verification.
func (m *MCE) Frame() *decoder.PauliFrame { return m.frame }

// Store exposes the microcode store (for bandwidth audits).
func (m *MCE) Store() *microcode.Store { return m.store }

// SupplyMagicStates adds distilled magic states to the local pool (fed by
// the T-factory tiles).
func (m *MCE) SupplyMagicStates(n int) {
	if n < 0 {
		panic("mce: negative magic state supply")
	}
	m.magicStates += n
}

// MagicStates returns the pool level.
func (m *MCE) MagicStates() int { return m.magicStates }

// Enqueue accepts one logical instruction from the master controller. Cache
// management opcodes are interpreted here; everything else waits in the
// instruction buffer.
func (m *MCE) Enqueue(in isa.LogicalInstr) error {
	switch in.Op {
	case isa.LCacheRun:
		body, ok := m.cache[int(in.Target)]
		if !ok {
			return fmt.Errorf("mce: cache run on empty slot %d", in.Target)
		}
		// A slot may hold a body staged for a larger tile; only running it
		// here needs its patches to exist.
		for i, bi := range body {
			if err := m.checkPatches(bi); err != nil {
				return fmt.Errorf("mce: cache slot %d entry %d: %w", in.Target, i, err)
			}
		}
		reps := int(in.Arg)
		if reps == 0 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			for _, bi := range body {
				m.replayQ.push(bi)
			}
		}
		m.cacheHits += uint64(reps)
		m.in.cacheHits.Add(uint64(reps))
		if m.bw != nil {
			// Replayed instructions are the bandwidth the cache saved: they
			// enter the pipeline here without crossing the global bus, so
			// they are metered with zero bytes.
			m.bw.Observe(m.cycle, bwprofile.BusReplay, bwprofile.ClassReplay, uint64(reps*len(body)), 0)
		}
		if m.tr != nil {
			m.tr.InstantArg("mce", m.tid, "cache.replay", int64(m.cycle), "reps", int64(reps))
		}
		return nil
	case isa.LCacheLoad:
		return fmt.Errorf("mce: LCacheLoad must arrive via LoadCacheSlot with its body")
	case isa.LSyncToken:
		return nil // sequencing only; no quantum effect
	}
	if err := m.checkPatches(in); err != nil {
		return err
	}
	if m.cfg.BufferCapacity > 0 && m.buffer.n >= m.cfg.BufferCapacity {
		return fmt.Errorf("mce: instruction buffer full (%d)", m.cfg.BufferCapacity)
	}
	m.buffer.push(in)
	m.in.logicalEnqueued.Inc()
	m.in.bufferOccupancy.Set(float64(m.buffer.n))
	return nil
}

// checkPatches rejects an instruction addressing a patch outside the tile.
// Every instruction that reaches the buffer or the replay queue names its
// patch in Target (and an LCNOT its partner in Arg).
func (m *MCE) checkPatches(in isa.LogicalInstr) error {
	if int(in.Target) >= m.cfg.Layout.NumPatches() {
		return fmt.Errorf("mce: instruction %s targets patch outside tile", in)
	}
	if in.Op == isa.LCNOT && int(in.Arg) >= m.cfg.Layout.NumPatches() {
		return fmt.Errorf("mce: CNOT partner outside tile")
	}
	return nil
}

// FreeBufferSlots returns how many more instructions Enqueue will accept
// (a large sentinel when unbounded); the master's flow control polls it.
func (m *MCE) FreeBufferSlots() int {
	if m.cfg.BufferCapacity <= 0 {
		return 1 << 30
	}
	free := m.cfg.BufferCapacity - m.buffer.n
	if free < 0 {
		return 0
	}
	return free
}

// LoadCacheSlot installs a loop body into a cache slot (the arrival of the
// body's bytes is metered by the master controller).
func (m *MCE) LoadCacheSlot(slot int, body []isa.LogicalInstr) error {
	if m.cfg.CacheSlots == 0 {
		return fmt.Errorf("mce: cache disabled")
	}
	if slot < 0 || slot >= m.cfg.CacheSlots {
		return fmt.Errorf("mce: cache slot %d outside [0,%d)", slot, m.cfg.CacheSlots)
	}
	if len(body) == 0 {
		return fmt.Errorf("mce: empty cache body")
	}
	m.cache[slot] = append([]isa.LogicalInstr(nil), body...)
	m.cacheLoads++
	m.in.cacheLoads.Inc()
	if m.tr != nil {
		m.tr.InstantArg("mce", m.tid, "cache.fill", int64(m.cycle), "instrs", int64(len(body)))
	}
	return nil
}

// PendingLogical returns the backlog: buffered + replaying instructions and
// in-flight braids.
func (m *MCE) PendingLogical() int {
	return m.buffer.n + m.replayQ.n + len(m.braids)
}

// Stats returns cumulative counters.
func (m *MCE) Stats() (microOps, logicalRetired, cacheHits, cacheLoads, stalledT uint64) {
	return m.microOps, m.logicalRetired, m.cacheHits, m.cacheLoads, m.stalledT
}

func (m *MCE) sinkMeasurement(q, bit int) {
	if m.cfg.Layout.Lat.RoleOf(q) == surface.RoleData {
		m.pendingData[q] = bit
		return
	}
	m.pendingSynd[q] = bit
}

// issueWidth bounds how many logical instructions start per cycle,
// modelling the decoder throughput of the instruction pipeline.
const issueWidth = 4

// StepCycle advances the machine by one QECC cycle and returns the report.
func (m *MCE) StepCycle() CycleReport {
	start := time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
	stallBefore := m.stalledT
	rep := CycleReport{Cycle: m.cycle}
	if m.inj != nil {
		m.inj.SetLocation(m.cycle, 0)
	}
	// Reuse the per-cycle measurement maps: clearing keeps the buckets a
	// steady-state cycle already paid for instead of re-growing two maps
	// every cycle.
	clear(m.pendingSynd)
	clear(m.pendingData)

	// 1. Advance in-flight braids by one mask step each.
	m.stepBraids(&rep)

	// 2. Issue new logical instructions to free patches.
	overlay := m.issueLogical(&rep)

	// 3. Replay the QECC microcode under the current mask, the logical
	// overlay in the first sub-cycle.
	rep.MicroOpsIssued = m.replay(overlay)
	m.microOps += uint64(rep.MicroOpsIssued)
	rep.Measurements = len(m.pendingSynd) + len(m.pendingData)

	// 4. Complete transverse measurements: majority over the patch's
	// logical-Z (or X) support with frame parity applied.
	m.completeMeasurements(&rep)

	// 5. Difference syndromes into defects and decode locally; residuals
	// escalate to the master controller.
	defects := m.hist.Absorb(m.pendingSynd)
	resolved, residual := m.local.Decode(defects)
	for _, c := range resolved {
		m.frame.Apply(c)
	}
	rep.DefectsLocal = len(resolved)
	rep.DefectsEscalated = residual

	if m.tr != nil {
		// One span per cycle, named by what the cycle achieved: "busy" when
		// logical work progressed (issue, braid, retire), "stall" when the
		// only blocked progress was a T waiting on a magic state, "idle" when
		// nothing but the background QECC replay ran. Summarize folds these
		// into the per-tile busy/stall/idle breakdown.
		name := "idle"
		switch {
		case rep.LogicalRetired > 0 || len(overlay) > 0 || len(m.braids) > 0:
			name = "busy"
		case m.stalledT > stallBefore:
			name = "stall"
		}
		m.tr.SpanArg("mce", m.tid, name, int64(rep.Cycle), 1, "uops", int64(rep.MicroOpsIssued))
		// The local LUT decoder runs every cycle; give its track a span only
		// when it had defects to chew on (keeps idle traces readable), plus a
		// permanent idle marker so the decoder track always exists.
		if len(defects) > 0 {
			m.tr.SpanArg("decoder", m.tid, "local", int64(rep.Cycle), 1, "defects", int64(len(defects)))
		} else {
			m.tr.Span("decoder", m.tid, "idle", int64(rep.Cycle), 1)
		}
	}

	m.cycle++
	m.in.cycles.Inc()
	m.in.microOps.Add(uint64(rep.MicroOpsIssued))
	m.in.logicalRetired.Add(uint64(rep.LogicalRetired))
	m.in.defectsLocal.Add(uint64(rep.DefectsLocal))
	m.in.defectsEscalated.Add(uint64(len(residual)))
	m.in.bufferOccupancy.Set(float64(m.buffer.n))
	m.in.cycleNs.Observe(float64(time.Since(start)))
	return rep
}

// replay executes one QECC cycle's microcode stream under the current
// mask and returns the µops issued. The first sub-cycle carries the logical
// overlay in the slots the mask freed, laid over a copy of the store's
// word: the store's words are read-only.
func (m *MCE) replay(overlay []isa.MicroOp) int {
	issued := 0
	for s, w := range m.store.ReplayCycle(m.mask) {
		if s == 0 && len(overlay) > 0 {
			copy(m.w0.Ops, w.Ops)
			copy(m.w0.Pairs, w.Pairs)
			for _, op := range overlay {
				m.w0.Set(op.Qubit, op.Op)
			}
			w = m.w0
		}
		m.unit.ExecuteWord(w)
		issued += w.Len()
	}
	return issued
}

func (m *MCE) stepBraids(rep *CycleReport) {
	active := m.braids[:0]
	for _, b := range m.braids {
		s := b.steps[0]
		if !m.cfg.Layout.Lat.InBounds(s.R, s.C) {
			panic(fmt.Sprintf("mce: braid step at (%d,%d) outside tile", s.R, s.C))
		}
		idx := m.cfg.Layout.Lat.Index(s.R, s.C)
		if s.Grow {
			m.mask.SetDisabled(idx, true)
		} else {
			// Shrink restores the site's rest state (gap sites stay masked).
			m.mask.SetDisabled(idx, m.baseMask.Disabled(idx))
		}
		b.steps = b.steps[1:]
		if len(b.steps) == 0 {
			m.busyPatch[b.ctrl] = false
			m.busyPatch[b.tgt] = false
			m.logicalRetired++
			rep.LogicalRetired++
			continue
		}
		active = append(active, b)
	}
	m.braids = active
}

// issueLogical pops ready instructions (replay queue first — cached loops
// have priority so factory pipelines never starve) and returns the physical
// overlay for this cycle's first sub-cycle. The overlay is scratch reused
// every cycle.
func (m *MCE) issueLogical(rep *CycleReport) []isa.MicroOp {
	clear(m.claimed)
	m.overlay = m.overlay[:0]
	st := issueState{}
	for _, busy := range m.busyPatch {
		if busy {
			st.blocked++
		}
	}
	m.issueFrom(&m.replayQ, &st, rep)
	m.issueFrom(&m.buffer, &st, rep)
	return m.overlay
}

// issueState is one cycle's issue progress across both queues.
type issueState struct {
	issued  int
	blocked int // patches claimed this cycle or occupied by a braid
}

// issueFrom issues what it can from q, trying instructions in program
// order. Each patch takes at most one instruction per cycle, and an
// instruction that cannot issue claims its patch so nothing later on that
// patch jumps it; an instruction on a claimed patch is skipped. The scan
// stops once issueWidth instructions have issued or every patch is claimed
// or under a braid: nothing later can issue, and tryIssue on a braided
// patch fails without side effects.
//
// Every instruction issueFrom tries is the head of its key's FIFO: an
// earlier instruction with the same key was either tried, which claims the
// key's patch, or skipped because a patch of the key was already claimed.
// And once a key is tried, its patch stays claimed for the rest of the
// cycle. So walking the keys' heads in program order, skipping keys that
// touch a claimed patch, tries exactly the instructions a scan of the whole
// queue would. A cycle costs O(keys + h·log h) for h non-empty keys,
// whatever the queues' length.
func (m *MCE) issueFrom(q *issueQueue, st *issueState, rep *CycleReport) {
	if st.issued >= issueWidth || st.blocked >= len(m.claimed) {
		return
	}
	heads := m.heads[:0]
	for k := range q.fifos {
		if f := &q.fifos[k]; f.head < len(f.buf) {
			heads = append(heads, issueHead{seq: f.buf[f.head].seq, key: k})
		}
	}
	m.examined += uint64(len(heads))
	slices.SortFunc(heads, func(a, b issueHead) int { return cmp.Compare(a.seq, b.seq) })
	m.heads = heads
	for _, h := range heads {
		if st.issued >= issueWidth || st.blocked >= len(m.claimed) {
			return
		}
		in := q.front(h.key).in
		p1, p2 := int(in.Target), -1
		if in.Op == isa.LCNOT {
			p2 = int(in.Arg)
		}
		if m.claimed[p1] || (p2 >= 0 && m.claimed[p2]) {
			continue
		}
		if !m.tryIssue(in, rep) {
			if !m.busyPatch[p1] {
				st.blocked++ // a busy p1 already counts
			}
			m.claimed[p1] = true
			continue
		}
		// Issued: neither patch was busy (tryIssue checks), nor claimed.
		q.pop(h.key)
		m.claimed[p1] = true
		st.blocked++
		if p2 >= 0 && p2 != p1 {
			m.claimed[p2] = true
			st.blocked++
		}
		st.issued++
	}
}

// issueQueue is one logical-instruction queue, the replay queue or the
// buffer, held as one FIFO per key: key p holds the single-patch
// instructions on patch p, and key (p, a) the LCNOTs from patch p to a.
// Sequence numbers record program order across the FIFOs.
type issueQueue struct {
	patches int
	fifos   []issueFIFO
	n       int    // queued instructions
	seq     uint64 // the next instruction's sequence number
}

type issueFIFO struct {
	buf  []queued
	head int // buf[:head] has issued
}

type queued struct {
	seq uint64
	in  isa.LogicalInstr
}

// issueHead names the FIFO key whose head instruction has sequence number
// seq.
type issueHead struct {
	seq uint64
	key int
}

func newIssueQueue(patches int) issueQueue {
	return issueQueue{patches: patches, fifos: make([]issueFIFO, patches*(patches+1))}
}

// key returns the FIFO an instruction queues in: p·(patches+1) for a
// single-patch instruction on p, plus 1+a for an LCNOT to patch a.
func (q *issueQueue) key(in isa.LogicalInstr) int {
	k := int(in.Target) * (q.patches + 1)
	if in.Op == isa.LCNOT {
		k += 1 + int(in.Arg)
	}
	return k
}

func (q *issueQueue) push(in isa.LogicalInstr) {
	f := &q.fifos[q.key(in)]
	if f.head > 0 && f.head >= len(f.buf)/2 && len(f.buf) == cap(f.buf) {
		// At least half the buffer has issued: slide the rest down
		// instead of growing.
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, queued{seq: q.seq, in: in})
	q.seq++
	q.n++
}

func (q *issueQueue) front(k int) *queued {
	f := &q.fifos[k]
	return &f.buf[f.head]
}

func (q *issueQueue) pop(k int) {
	f := &q.fifos[k]
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	q.n--
}

func (q *issueQueue) reset() {
	for k := range q.fifos {
		q.fifos[k].buf, q.fifos[k].head = q.fifos[k].buf[:0], 0
	}
	q.n, q.seq = 0, 0
}

// tryIssue attempts to start one logical instruction this cycle; a
// transverse instruction appends its µops to the cycle's overlay.
func (m *MCE) tryIssue(in isa.LogicalInstr, rep *CycleReport) bool {
	patch := int(in.Target)
	if m.busyPatch[patch] {
		return false
	}
	switch {
	case in.Op == isa.LCNOT:
		tgt := int(in.Arg)
		if m.busyPatch[tgt] {
			return false
		}
		steps := m.braidSteps[patch*len(m.patch)+tgt]
		if steps == nil {
			steps = compiler.BraidForCNOT(m.cfg.Layout, patch, tgt)
			m.braidSteps[patch*len(m.patch)+tgt] = steps
		}
		if len(steps) == 0 {
			m.logicalRetired++
			rep.LogicalRetired++
			return true
		}
		m.busyPatch[patch] = true
		m.busyPatch[tgt] = true
		m.braids = append(m.braids, braid{steps: steps, ctrl: patch, tgt: tgt})
		return true
	case in.Op == isa.LX || in.Op == isa.LZ:
		// Logical Paulis are Pauli-frame updates along the logical operator
		// chain — zero quantum cost, as in Appendix A.2's correction log.
		support := m.patch[patch].logicalX
		flipX := true
		if in.Op == isa.LZ {
			support = m.patch[patch].logicalZ
			flipX = false
		}
		for _, q := range support {
			m.frame.Apply(decoder.Correction{Qubit: q, FlipX: flipX})
		}
		m.logicalRetired++
		rep.LogicalRetired++
		return true
	case in.Op == isa.LT:
		if m.magicStates == 0 {
			m.stalledT++
			m.in.stalledT.Inc()
			return false
		}
		m.magicStates--
		fallthrough
	case in.Op.IsTransverse():
		k := patch*isa.NumLogicalOpcodes + int(in.Op)
		ops := m.transverse[k]
		if ops == nil {
			var err error
			if ops, err = compiler.ExpandTransverse(m.cfg.Layout, in); err != nil {
				panic(fmt.Sprintf("mce: %v", err))
			}
			m.transverse[k] = ops
		}
		m.overlay = append(m.overlay, ops...)
		// Mask the patch for this cycle so QECC yields the sub-cycle slots.
		r0, c0, r1, c1 := m.cfg.Layout.PatchRegion(patch)
		m.mask.SetRegion(r0, c0, r1, c1, true)
		// Unmasking happens next cycle via deferred list: we unmask
		// immediately after replay by recording the patch.
		m.deferUnmask(r0, c0, r1, c1)
		switch in.Op {
		case isa.LMeasZ, isa.LMeasX:
			m.measuring[patch] = in.Op == isa.LMeasX
			m.forgetPatch(patch)
		case isa.LPrep0, isa.LPrepPlus:
			// A fresh patch owes nothing to past syndromes or corrections.
			m.forgetPatch(patch)
			m.frame.Clear(m.patch[patch].qubits)
		}
		m.logicalRetired++
		rep.LogicalRetired++
		return true
	default:
		// Mask-manipulation opcodes arriving individually.
		switch in.Op {
		case isa.LMaskGrow, isa.LMaskShrink, isa.LMaskMove:
			m.logicalRetired++
			rep.LogicalRetired++
			return true
		}
		panic(fmt.Sprintf("mce: unhandled logical instruction %s", in))
	}
}

// deferred unmask bookkeeping: patches masked for a single-cycle transverse
// op are restored right after the cycle's words are built. Because
// ReplayCycle snapshots the mask when called, restoring immediately after
// building this cycle's stream is equivalent to restoring next cycle.
type region struct{ r0, c0, r1, c1 int }

func (m *MCE) deferUnmask(r0, c0, r1, c1 int) {
	m.pendingUnmask = append(m.pendingUnmask, region{r0, c0, r1, c1})
}

// forgetPatch drops the syndrome reference of a patch's ancillas: after a
// (re)preparation or destructive measurement, old syndrome records would
// read as a wall of spurious defects.
func (m *MCE) forgetPatch(patch int) {
	m.hist.Forget(m.patch[patch].ancillas)
}

func (m *MCE) completeMeasurements(rep *CycleReport) {
	for patch, basisX := range m.measuring {
		// Z-basis outcome = parity over the logical-Z support, corrected by
		// pending X flips; X-basis uses the logical-X support and Z flips.
		support := m.patch[patch].logicalZ
		if basisX {
			support = m.patch[patch].logicalX
		}
		parity := 0
		complete := true
		for _, q := range support {
			bit, ok := m.pendingData[q]
			if !ok {
				complete = false
				break
			}
			parity ^= bit
		}
		if !complete {
			continue
		}
		parity ^= m.frame.ParityOn(support, !basisX)
		rep.LogicalResults = append(rep.LogicalResults, LogicalResult{Patch: patch, Bit: parity})
		delete(m.measuring, patch)
	}
	// Restore single-cycle masks.
	for _, r := range m.pendingUnmask {
		m.mask.SetRegion(r.r0, r.c0, r.r1, r.c1, false)
	}
	m.pendingUnmask = m.pendingUnmask[:0]
}
