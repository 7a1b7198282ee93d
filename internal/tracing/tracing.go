// Package tracing is the repository's cycle-correlated event tracer: a
// low-overhead, concurrency-safe recorder of begin/end spans and instant
// events keyed by *simulated QECC cycle* and component track (master
// controller, per-tile MCE, decoder windows, NoC hops, DRAM streams), with a
// Chrome trace-event JSON exporter loadable in Perfetto or chrome://tracing.
//
// The metrics registry (internal/metrics) answers "how much, how fast, on
// average"; this package answers "when, and in what order": which cycle an
// MCE stalled waiting for a magic state, which decode window's flush lined up
// with a burst of escalations, how long a logical instruction sat in the NoC.
// The related controller literature debugs exactly this view — QuMA's
// per-cycle timing diagrams (arXiv:1708.07677) and the decode-latency
// timelines of Das et al. (arXiv:2001.06598) — and a regenerable trace turns
// those hand-drawn figures into per-run artifacts.
//
// Design points, mirroring internal/metrics:
//
//   - The timebase is the simulated cycle, never the wall clock, so traces
//     are deterministic artifacts of (config, seed) and diffable run to run.
//   - Recording is gated behind a nil receiver: every method no-ops on a nil
//     *Tracer, so instrumented hot paths pay one predictable branch and zero
//     allocations when tracing is off.
//   - Storage is a fixed-capacity ring per Tracer; a full ring overwrites the
//     oldest events and counts the drops instead of growing without bound or
//     stalling the simulation.
//   - Tracers are injectable and mergeable: a Monte-Carlo worker pool hands
//     each goroutine a private shard and merges the shards after the pool
//     drains (mc.Run), so the merged event multiset is independent of
//     the worker count and CanonicalSort makes the export byte-identical.
//   - Tracing never feeds back into simulation results: removing every Span
//     and Instant call changes nothing but the artifact.
package tracing

import "sync"

// Phase identifiers (a subset of the Chrome trace-event phases).
const (
	// PhaseSpan is a complete duration event ("X"): ts..ts+dur.
	PhaseSpan = 'X'
	// PhaseInstant is a point event ("i") at ts.
	PhaseInstant = 'i'
)

// Event is one recorded trace event. Proc/Tid name the track: Proc groups a
// component class ("master", "mce", "decoder", "noc", "dram") and Tid its
// instance (tile index, window id, 0). Ts and Dur are in simulated cycles.
// ArgKey/Arg carry one optional numeric payload (µops issued, defects
// matched, packet latency) rendered into the event's args map on export.
type Event struct {
	Proc   string
	Tid    int
	Name   string
	Ph     byte
	Ts     int64
	Dur    int64
	ArgKey string
	Arg    int64
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity: 256k events ≈ a few tens of MB of JSON, enough for a multi-tile
// distillation run with per-cycle spans on every track.
const DefaultCapacity = 1 << 18

// Default is the process-wide tracer. It is nil — tracing off — unless a
// binary enables it (cmd/questsim and cmd/questbench do so for their -trace
// flag). Components resolve their Tracer as "config field, else Default", so
// a nil everywhere keeps every hot path on the zero-cost branch.
var Default *Tracer

// Tracer is a bounded event recorder. All methods are safe for concurrent
// use and safe on a nil receiver (recording methods become no-ops).
type Tracer struct {
	mu      sync.Mutex
	cap     int
	buf     []Event
	head    int // next overwrite position once the ring is full
	full    bool
	dropped uint64
}

// New returns a tracer with the given ring capacity (non-positive means
// DefaultCapacity).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{cap: capacity}
}

// Capacity returns the ring capacity (0 for a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// Enabled reports whether recording is live. The canonical call-site gate is
// simply `if t != nil`; Enabled exists for callers holding an interface-ish
// optional field.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.head] = ev
		t.head++
		if t.head == t.cap {
			t.head = 0
		}
		t.full = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Span records a complete span on track (proc, tid) covering cycles
// [cycle, cycle+dur). No-op on a nil tracer.
func (t *Tracer) Span(proc string, tid int, name string, cycle, dur int64) {
	if t == nil {
		return
	}
	t.record(Event{Proc: proc, Tid: tid, Name: name, Ph: PhaseSpan, Ts: cycle, Dur: dur})
}

// SpanArg is Span with one numeric argument (rendered as args{key: arg}).
func (t *Tracer) SpanArg(proc string, tid int, name string, cycle, dur int64, key string, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{Proc: proc, Tid: tid, Name: name, Ph: PhaseSpan, Ts: cycle, Dur: dur, ArgKey: key, Arg: arg})
}

// Instant records a point event at the given cycle. No-op on a nil tracer.
func (t *Tracer) Instant(proc string, tid int, name string, cycle int64) {
	if t == nil {
		return
	}
	t.record(Event{Proc: proc, Tid: tid, Name: name, Ph: PhaseInstant, Ts: cycle})
}

// InstantArg is Instant with one numeric argument.
func (t *Tracer) InstantArg(proc string, tid int, name string, cycle int64, key string, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{Proc: proc, Tid: tid, Name: name, Ph: PhaseInstant, Ts: cycle, ArgKey: key, Arg: arg})
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns how many events the ring has overwritten (oldest-first).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered events in insertion order (oldest
// surviving event first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

func (t *Tracer) eventsLocked() []Event {
	out := make([]Event, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.head:]...)
		out = append(out, t.buf[:t.head]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Merge folds src's events into t in src's insertion order and accumulates
// its drop count — the per-worker shard aggregation step, mirroring
// metrics.Registry.Merge. Merging a shard into a smaller or near-full parent
// ring may itself drop (counted); size the parent for the fan-in when traces
// must be complete.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	src.mu.Lock()
	evs := src.eventsLocked()
	dropped := src.dropped
	src.mu.Unlock()
	for _, ev := range evs {
		t.record(ev)
	}
	if dropped > 0 {
		t.mu.Lock()
		t.dropped += dropped
		t.mu.Unlock()
	}
}

// Reset discards all buffered events and the drop count (capacity is kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.head = 0
	t.full = false
	t.dropped = 0
	t.mu.Unlock()
}
