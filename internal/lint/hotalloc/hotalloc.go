// Package hotalloc defines the hotalloc analyzer: a static, interprocedural
// audit of the repository's pinned allocation budgets. The benchmark pins
// (TestRunAllocs ≤ 8 allocs/call, TestMatchHeatOffAllocs ≤ 6 allocs/op)
// catch regressions only when the benchmarks run and only on the configs
// they exercise; hotalloc makes the same contract auditable at lint time by
// counting the syntactic allocation sites reachable from each budgeted hot
// entry point over the call graph, following only edges outside observer
// nil gates (the pins are defined with observers off).
//
// The count is an over-approximation of allocs/op — a site inside a
// rarely-taken branch or a pre-grown append still counts — so each entry
// point carries its own ceiling in questvet-budgets.json, set to the
// measured clean-tree count. The ceiling moving is the signal: an extracted
// helper that allocates, a closure that grows, a map literal on a new call
// path all push the static count past the committed budget and fail lint
// before any benchmark runs.
package hotalloc

import (
	"quest/internal/lint/analysis"
	"quest/internal/lint/callgraph"
)

// A Budget pins the static allocation-site ceiling for one hot entry point.
type Budget struct {
	// Root is a callgraph function spec: "internal/mc.Run",
	// "internal/decoder.(*GlobalDecoder).Match".
	Root string `json:"root"`
	// MaxSites is the committed ceiling on ungated allocation sites
	// reachable from Root (measured on a clean tree; bump deliberately).
	MaxSites int `json:"max_sites"`
	// BenchAllocs, when non-zero, records the runtime allocs/op pin the
	// static budget shadows (8 for mc.Run, 6 for the decoder exact-match
	// path) so the two stay cross-checked in one reviewed file.
	BenchAllocs int `json:"bench_allocs,omitempty"`
	// Note documents what the entry point covers.
	Note string `json:"note,omitempty"`
}

// New builds the analyzer for a set of budgets (typically loaded from the
// module's questvet-budgets.json). With a nil Pass.Graph it reports
// nothing; unresolved budget roots are the driver's job to reject.
func New(budgets []Budget) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "allocation sites reachable from a hot entry point exceed the " +
			"committed per-root budget (questvet-budgets.json)",
		Run: func(pass *analysis.Pass) error { return run(pass, budgets) },
	}
}

type siteRef struct {
	node *callgraph.Node
	site callgraph.AllocSite
}

func run(pass *analysis.Pass, budgets []Budget) error {
	g := pass.Graph
	if g == nil {
		return nil
	}
	for _, b := range budgets {
		roots := g.Lookup(b.Root)
		if len(roots) == 0 {
			continue // the driver reports unresolved budget roots
		}
		total := 0
		var sites []siteRef
		for _, n := range g.ReachableFrom(roots...) {
			for _, s := range n.Allocs {
				if s.Gated {
					continue // observers-on path; outside the pin
				}
				total++
				sites = append(sites, siteRef{node: n, site: s})
			}
		}
		if total <= b.MaxSites {
			continue
		}
		// Summary at the entry point (in its package's pass), one line per
		// site (in the site's package's pass) so the overflow is actionable
		// wherever it lives.
		for _, root := range roots {
			if root.Pkg == pass.Pkg {
				pass.Reportf(root.Pos,
					"hot path %s has %d static allocation site(s), budget %d; trim the hot path or bump questvet-budgets.json deliberately",
					b.Root, total, b.MaxSites)
			}
		}
		for _, sr := range sites {
			if sr.node.Pkg == pass.Pkg {
				pass.Reportf(sr.site.Pos, "allocation (%s) in %s on hot path %s (over budget: %d site(s) > %d)",
					sr.site.What, g.DisplayName(sr.node), b.Root, total, b.MaxSites)
			}
		}
	}
	return nil
}
