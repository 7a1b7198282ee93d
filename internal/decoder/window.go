package decoder

import (
	"time"

	"quest/internal/tracing"
)

// WindowDecoder implements the space-time decoding the paper describes in
// Appendix A.2: syndrome changes are accumulated over a window of rounds and
// matched jointly, so that measurement errors (time-like defect pairs) and
// multi-round error chains are paired correctly instead of being forced to a
// boundary round by round. The two-level split is preserved: a LocalDecoder
// may still strip isolated single-error patterns per round before defects
// enter the window.
type WindowDecoder struct {
	global Matcher
	// WindowRounds is the number of rounds batched per decode; the usual
	// choice is the code distance.
	WindowRounds int

	buf        []Defect
	sinceFlush int
	instr      *Instr

	tr  *tracing.Tracer
	tid int
	// round counts Absorb calls — the window's clock. The master calls Absorb
	// exactly once per tile per machine cycle, so rounds align with cycles.
	round, openRound int64
}

// Matcher is the matching stage both global decoders implement, letting the
// window (and the master controller) swap MWPM for union-find. Bind rebinds
// the instruments and heat collector its matchings record into.
type Matcher interface {
	Match(defects []Defect) Matching
	Corrections(defects []Defect, m Matching) []Correction
	Bind(b Binding)
}

var (
	_ Matcher = (*GlobalDecoder)(nil)
	_ Matcher = (*UnionFindDecoder)(nil)
)

// NewWindowDecoder wraps a matcher with a window of the given number
// of rounds (values below 1 are clamped to 1, which degenerates to per-round
// decoding).
func NewWindowDecoder(global Matcher, windowRounds int) *WindowDecoder {
	if windowRounds < 1 {
		windowRounds = 1
	}
	return &WindowDecoder{global: global, WindowRounds: windowRounds, instr: defaultInstr}
}

// Bind rebinds the window's instruments and tracer (the window's spans go
// on track b.TID) and forwards b to the wrapped matcher.
func (w *WindowDecoder) Bind(b Binding) {
	w.instr = b.instrOr()
	w.tr = b.Tracer
	w.tid = b.TID
	w.global.Bind(b)
}

// Pending returns the number of buffered defects.
func (w *WindowDecoder) Pending() int { return len(w.buf) }

// Reset returns the window to its freshly constructed state — empty buffer,
// round clock at zero — while keeping the buffer storage and the wrapped
// matcher (whose LUTs and scratch are trial-independent). The batched trial
// engine pools window decoders across trials; resetting the round clock
// keeps the per-trial tracer spans identical to a fresh decoder's.
func (w *WindowDecoder) Reset() {
	w.buf = w.buf[:0]
	w.sinceFlush = 0
	w.round = 0
	w.openRound = 0
}

// Absorb buffers one round's defects and decodes into the frame when the
// window fills. It returns the number of corrections applied (zero while the
// window is still open).
func (w *WindowDecoder) Absorb(defects []Defect, frame *PauliFrame) int {
	if w.sinceFlush == 0 {
		w.openRound = w.round
	}
	w.round++
	w.buf = append(w.buf, defects...)
	w.sinceFlush++
	w.instr.windowRounds.Inc()
	if w.sinceFlush < w.WindowRounds {
		return 0
	}
	return w.Flush(frame)
}

// Flush decodes everything buffered regardless of window occupancy (used at
// the end of a computation or before a logical measurement that must see a
// settled frame).
func (w *WindowDecoder) Flush(frame *PauliFrame) int {
	w.sinceFlush = 0
	if len(w.buf) == 0 {
		return 0
	}
	start := time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
	applied := 0
	xs, zs := SplitByType(w.buf)
	w.buf = w.buf[:0]
	for _, group := range [2][]Defect{xs, zs} {
		if len(group) == 0 {
			continue
		}
		m := w.global.Match(group)
		for _, c := range w.global.Corrections(group, m) {
			frame.Apply(c)
			applied++
		}
	}
	w.instr.windowFlushNs.Observe(float64(time.Since(start)))
	if w.tr != nil {
		dur := w.round - w.openRound
		if dur < 1 {
			dur = 1
		}
		w.tr.SpanArg("decoder", w.tid, "window", w.openRound, dur, "applied", int64(applied))
	}
	w.openRound = w.round
	return applied
}
