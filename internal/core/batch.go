package core

import (
	"sync"

	"quest/internal/clifford"
	"quest/internal/decoder"
	"quest/internal/heatmap"
	"quest/internal/mc"
	"quest/internal/noise"
	"quest/internal/surface"
)

// This file is the threshold experiment's trial engine: the windowed-decode
// memory experiment, structured so that per-trial setup is compiled once per
// distance and the per-trial fault state is bit-sliced across a 64-trial
// lane.
//
// The reference trial — kept in the tests as the oracle — re-simulates the
// full stabilizer tableau through the AWG units with the scalar
// noise.Injector. But after the first (discarded) clean extraction cycle
// projects the state, every subsequent ancilla measurement outcome is
// deterministic: Pauli faults flip outcomes without introducing randomness,
// the clean-syndrome reference is identical every trial, and the logical-Z
// readout of the zero-fault state is always +1. The trial outcome is
// therefore a pure function of the injector's fault stream: Fail iff the
// X-fault parity on the logical-Z support disagrees with the decoder
// frame's X-parity there. That lets the batched engine replace the tableau
// with Pauli-frame fault propagation through the precompiled extraction
// program — replaying the scalar injector's RNG draws site by site
// (noise.Replayer) so the fault pattern, defect stream, decode, ledger
// bytes and heat JSON stay byte-identical to the scalar oracle (pinned by
// TestThresholdBatchedMatchesScalar).

// thresholdProgram is the once-per-distance precompute of a threshold cell:
// the lattice, the extraction program, the logical-Z support and the ancilla
// scan order. It is independent of the physical error rate, so cells of one
// distance share it across the whole sweep.
type thresholdProgram struct {
	lat  surface.Lattice
	d    int
	prog *surface.ExtractionProgram
	logZ []int
	anc  []batchAncilla
	pool sync.Pool // *batchScratch
}

// batchAncilla caches an ancilla's coordinates and type for defect emission
// in qubit-index order — the order SyndromeHistory.Absorb scans, which the
// ledger/heat byte-equality with the scalar oracle depends on.
type batchAncilla struct {
	q, r, c int
	isX     bool
}

// thresholdPrograms caches compiled cells by distance.
var thresholdPrograms sync.Map // int -> *thresholdProgram

func thresholdProgramFor(d int) *thresholdProgram {
	if v, ok := thresholdPrograms.Load(d); ok {
		return v.(*thresholdProgram)
	}
	lat := surface.NewPlanar(d)
	tp := &thresholdProgram{
		lat:  lat,
		d:    d,
		prog: surface.BuildProgram(lat, surface.CompileCycle(lat, surface.Steane, nil)),
		logZ: lat.LogicalZ(),
	}
	for q := 0; q < lat.NumQubits(); q++ {
		role := lat.RoleOf(q)
		if role == surface.RoleData {
			continue
		}
		r, c := lat.Coord(q)
		tp.anc = append(tp.anc, batchAncilla{q: q, r: r, c: c, isX: role == surface.RoleAncillaX})
	}
	tp.pool.New = func() any { return newBatchScratch(tp) }
	v, _ := thresholdPrograms.LoadOrStore(d, tp)
	return v.(*thresholdProgram)
}

// batchScratch is the pooled lane state: dense fault lanes indexed by
// (cycle, word, qubit), the live Pauli-frame lanes, the per-round ancilla
// outcome-flip lanes, and the per-trial decoder scratch (window + matcher +
// frame) that the scalar oracle reallocated every trial. One scratch serves
// one lane at a time; the pool hands it back to whichever worker claims the
// next lane.
type batchScratch struct {
	faultX, faultZ []uint64 // (cycle*depth+word)*n + q: faults injected in that word
	measFlip       []uint64 // cycle*n + q: classical measurement flips
	dirty          []bool   // cycle*depth + word: any fault lane set there
	fx, fz         []uint64 // live fault frame, one lane per qubit
	flips          []uint64 // round*n + q: ancilla outcome-flip lanes, rounds 0..d+1
	defects        []decoder.Defect
	frame          *decoder.PauliFrame
	win            *decoder.WindowDecoder
	rep            *noise.Replayer
}

func newBatchScratch(tp *thresholdProgram) *batchScratch {
	depth := len(tp.prog.Words)
	n := tp.prog.NumQubits
	d := tp.d
	return &batchScratch{
		faultX:   make([]uint64, d*depth*n),
		faultZ:   make([]uint64, d*depth*n),
		measFlip: make([]uint64, d*n),
		dirty:    make([]bool, d*depth),
		fx:       make([]uint64, n),
		fz:       make([]uint64, n),
		flips:    make([]uint64, (d+2)*n),
		frame:    decoder.NewPauliFrame(),
		win:      decoder.NewWindowDecoder(decoder.NewGlobalDecoder(tp.lat), d),
		rep:      noise.NewReplayer(noise.Model{}, 1),
	}
}

// addFault XORs a sampled Pauli into trial bit's fault lanes at (base, q).
func (s *batchScratch) addFault(base, q int, p clifford.Pauli, bit uint64) {
	if p == clifford.PauliX || p == clifford.PauliY {
		s.faultX[base+q] ^= bit
	}
	if p == clifford.PauliZ || p == clifford.PauliY {
		s.faultZ[base+q] ^= bit
	}
}

// runLane executes one lane of trials: sample every trial's fault stream by
// exact injector-RNG replay, propagate all lanes through the extraction
// program with word ops, then decode each trial against the pooled window
// decoder. out[i] receives trial seeds[i]'s outcome.
func (tp *thresholdProgram) runLane(p float64, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
	s := tp.pool.Get().(*batchScratch)
	defer tp.pool.Put(s)
	depth := len(tp.prog.Words)
	n := tp.prog.NumQubits
	d := tp.d
	model := noise.Uniform(p)

	for i := range s.faultX {
		s.faultX[i] = 0
		s.faultZ[i] = 0
	}
	for i := range s.measFlip {
		s.measFlip[i] = 0
	}
	for i := range s.dirty {
		s.dirty[i] = false
	}

	// Phase 1: per-trial fault sampling. The RNG replay is inherently
	// sequential per trial (each draw's position depends on the previous
	// draws), but it touches no tableau: every site is one Float64 compare,
	// and a fault is a single XOR into the trial's bit lane. The scalar
	// engine's injector draws only during the d noisy cycles — the clean
	// reference and final readout cycles draw nothing — so the replay
	// walks exactly those cycles.
	for i, seed := range seeds {
		s.rep.Reset(model, int64(mc.Derive(seed, 1)))
		bit := uint64(1) << uint(i)
		for c := 0; c < d; c++ {
			for w := range tp.prog.Words {
				base := (c*depth + w) * n
				for _, site := range tp.prog.Words[w].Sites {
					switch site.Kind {
					case surface.SiteIdle:
						if pl, ok := s.rep.Idle(); ok {
							s.addFault(base, site.Qubit, pl, bit)
							s.dirty[c*depth+w] = true
						}
					case surface.SitePrep:
						if pl, ok := s.rep.AfterPrep(site.BasisX); ok {
							s.addFault(base, site.Qubit, pl, bit)
							s.dirty[c*depth+w] = true
						}
					case surface.SiteGate2:
						if pa, pb, ok := s.rep.AfterGate2(); ok {
							s.addFault(base, site.Qubit, pa, bit)
							s.addFault(base, site.Pair, pb, bit)
							s.dirty[c*depth+w] = true
						}
					case surface.SiteMeas:
						if s.rep.FlipMeasurement() {
							s.measFlip[c*n+site.Qubit] ^= bit
						}
					}
				}
			}
		}
	}

	// Phase 2: bit-sliced propagation, all trials at once. Rounds 1..d are
	// the noisy cycles, round d+1 the final clean cycle that flushes
	// late data faults into the syndrome. Within a word the phase order
	// (measure, prep, propagate, inject) is equivalent to the AWG unit's
	// interleaved per-qubit execution because each qubit carries exactly
	// one µop per word — see ProgramWord.
	for i := range s.flips {
		s.flips[i] = 0
	}
	for i := range s.fx {
		s.fx[i] = 0
		s.fz[i] = 0
	}
	for r := 1; r <= d+1; r++ {
		noisy := r <= d
		cbase := (r - 1) * depth
		for w := range tp.prog.Words {
			word := &tp.prog.Words[w]
			for _, m := range word.Meas {
				flip := s.fx[m.Qubit]
				if m.IsX {
					flip = s.fz[m.Qubit]
				}
				if noisy {
					flip ^= s.measFlip[(r-1)*n+m.Qubit]
				}
				s.flips[r*n+m.Qubit] = flip
			}
			for _, pr := range word.Preps {
				s.fx[pr.Qubit] = 0
				s.fz[pr.Qubit] = 0
			}
			for _, g := range word.CNOTs {
				s.fx[g.Target] ^= s.fx[g.Control]
				s.fz[g.Control] ^= s.fz[g.Target]
			}
			if noisy && s.dirty[cbase+w] {
				base := (cbase + w) * n
				for q := 0; q < n; q++ {
					s.fx[q] ^= s.faultX[base+q]
					s.fz[q] ^= s.faultZ[base+q]
				}
			}
		}
	}

	// xp lane: X-fault parity over the logical-Z support at readout time.
	var xp uint64
	for _, q := range tp.logZ {
		xp ^= s.fx[q]
	}

	// Phase 3: per-trial windowed decode over the defect lanes, driving the
	// same WindowDecoder the scalar oracle uses — Absorb per round, Flush at
	// the end — so matchings, corrections, instrument counts, tracer spans
	// and heat records replicate the scalar path exactly.
	var instr *decoder.Instr
	if ctx.Shard != nil {
		instr = decoder.NewInstr(ctx.Shard)
	}
	for i := range seeds {
		bit := uint64(1) << uint(i)
		var heat *heatmap.Collector
		if ctx.Heat != nil {
			heat = ctx.Heat[i]
		}
		s.win.Reset()
		s.frame.Reset()
		s.win.Bind(decoder.Binding{Instr: instr, Tracer: ctx.Trace, Heat: heat}) // nil Instr restores the default
		for r := 1; r <= d+1; r++ {
			defs := s.defects[:0]
			row, prev := r*n, (r-1)*n
			for _, a := range tp.anc {
				if (s.flips[row+a.q]^s.flips[prev+a.q])&bit != 0 {
					defs = append(defs, decoder.Defect{Round: r, Qubit: a.q, R: a.r, C: a.c, IsX: a.isX})
					if heat != nil {
						heat.Defect(a.r, a.c)
					}
				}
			}
			s.win.Absorb(defs, s.frame) // copies; defs backing store is reused
			s.defects = defs[:0]
		}
		s.win.Flush(s.frame)
		fail := (xp>>uint(i))&1 != uint64(s.frame.ParityOn(tp.logZ, true))
		out[i] = mc.Outcome{Fail: fail}
	}
}

// batchedThreshold is the production threshold engine: one compiled
// program per distance, LaneWidth trials per lane.
func batchedThreshold(d int, p float64) cellEngine {
	tp := thresholdProgramFor(d)
	return cellEngine{lane: mc.LaneWidth, rows: tp.lat.Rows, cols: tp.lat.Cols,
		fn: func(_ int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			tp.runLane(p, seeds, ctx, out)
		}}
}
