package decoder

import (
	"quest/internal/heatmap"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// Instr bundles the decoder package's instruments, resolved once against a
// registry so the hot paths (Match inside a Monte-Carlo trial) never touch
// the registry's lock. Decoders record against the process-wide default
// registry unless rebound with Bind — worker pools hand each trial an
// instrument bound to a per-worker shard (see mc.Run) so instrumentation
// adds no cross-worker cache-line contention.
type Instr struct {
	matchCalls   *metrics.Counter
	matchExact   *metrics.Counter
	matchGreedy  *metrics.Counter
	matchUF      *metrics.Counter
	matchDefects *metrics.Counter
	matchNs      *metrics.Histogram

	localResolved  *metrics.Counter
	localEscalated *metrics.Counter

	windowRounds  *metrics.Counter
	windowFlushNs *metrics.Histogram
}

// NewInstr resolves the decoder instruments against r.
func NewInstr(r *metrics.Registry) *Instr {
	return &Instr{
		matchCalls:   r.Counter("decoder.match.calls"),
		matchExact:   r.Counter("decoder.match.exact"),
		matchGreedy:  r.Counter("decoder.match.greedy"),
		matchUF:      r.Counter("decoder.match.unionfind"),
		matchDefects: r.Counter("decoder.match.defects"),
		matchNs:      r.Histogram("decoder.match.ns", nil),

		localResolved:  r.Counter("decoder.local.resolved"),
		localEscalated: r.Counter("decoder.local.escalated"),

		windowRounds:  r.Counter("decoder.window.rounds"),
		windowFlushNs: r.Histogram("decoder.window.flush.ns", nil),
	}
}

// defaultInstr records into metrics.Default.
var defaultInstr = NewInstr(metrics.Default)

// Binding is everything a decoder records into, bound in one call
// (Matcher.Bind, WindowDecoder.Bind). The zero value restores the defaults:
// metrics.Default's instruments, no tracing, no heat.
type Binding struct {
	// Instr is the instrument set (nil = metrics.Default's).
	Instr *Instr
	// Tracer and TID (the tile index) label a window decoder's "window"
	// spans on the decoder track. Nil disables emission.
	Tracer *tracing.Tracer
	TID    int
	// Heat records every matching's pair endpoints, space-time chain
	// lengths and boundary matches. Nil disables recording.
	Heat *heatmap.Collector
}

// instrOr returns b's instruments, or the default registry's when unset.
func (b Binding) instrOr() *Instr {
	if b.Instr == nil {
		return defaultInstr
	}
	return b.Instr
}
