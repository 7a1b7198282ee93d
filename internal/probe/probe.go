// Package probe declares the observer bundle every machine component and
// sweep binds: one struct, embedded by value in mce.Config, master.Config,
// core.MachineConfig and core.SweepObs, so a new observer hook is one field
// here, bound in each component's one reset path (MCE.Reset,
// Master.Reset).
//
// The package is a leaf with no methods: the components resolve the bundle
// into their own fields (instruments, tracer, heat collector, recorder)
// when they are built or reset, and their hot paths gate on those.
package probe

import (
	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// Probes is the observer bundle. The zero value reports nothing.
type Probes struct {
	// Metrics is the registry the components' instruments record into.
	// Instruments are never nil, so nil does not switch counting off: the
	// components count into metrics.Default, which only -metrics, -pprof and
	// -events export. Monte-Carlo sweeps hand each worker a private shard
	// and merge the shards into Metrics when it is non-nil.
	Metrics *metrics.Registry
	// Tracer records cycle-correlated events for Perfetto export. Nil falls
	// back to tracing.Default, which is itself nil — tracing off — unless a
	// binary enabled it.
	Tracer *tracing.Tracer
	// Heat collects defect births (MCE syndrome histories) and matched-chain
	// footprints (global decoders), one collector per lattice shape. Nil
	// keeps every decode path allocation-free.
	Heat *heatmap.Set
	// BW profiles the instruction bandwidth cycle by cycle: bus dispatches
	// and cache replays into windowed per-class counts for the quest-bw/1
	// artifact. Nil keeps the dispatch paths allocation-free.
	BW *bwprofile.Recorder
}
