// Package questvet assembles the repository's analyzer suite — the
// machine-checked invariants behind the paper reproduction's determinism
// and zero-overhead-observability claims — and scopes each analyzer to the
// packages where its invariant is load-bearing:
//
//   - detrange (determinism-critical packages, checker tools, commands): no
//     map iteration whose order can reach results, ledgers, traces,
//     heatmaps, or reports.
//   - nogate (hot-path packages): every tracing/heatmap hook nil-gated,
//     every metrics argument allocation-free, protecting the pinned alloc
//     budgets (mc.Run ≤ 8 allocs/call, decoder exact-match ≤ 6
//     allocs/op with observers off).
//   - seedsrc (simulation/MC packages): no wall clock, pid, or global
//     math/rand source; all entropy flows from the experiment seed through
//     the SplitMix64 mixers.
//   - schemaver (everywhere): serialized-artifact schema strings
//     ("quest-ledger/1", ...) defined once, as exported constants.
//   - hotalloc (everywhere, interprocedural): static allocation sites
//     reachable from each budgeted hot entry point stay within the
//     committed ceilings in questvet-budgets.json.
//   - gateflow (everywhere outside nogate's scope, interprocedural):
//     observer method calls reachable from a hot root are nil-gated on
//     their receiver on every call path.
//   - errsink (everywhere): error results from ledger/events/bwprofile/cli
//     calls are never discarded.
//
// The interprocedural analyzers share one whole-module call graph
// (internal/lint/callgraph) built per run; its hot roots are the Monte-
// Carlo engines' entry points and trial closures, the global decoder's
// match path, and the MCE/master cycle loops.
//
// The tools/questvet binary drives this suite over the module; the Run
// helper here is shared with its tests.
package questvet

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"quest/internal/lint/analysis"
	"quest/internal/lint/callgraph"
	"quest/internal/lint/detrange"
	"quest/internal/lint/errsink"
	"quest/internal/lint/gateflow"
	"quest/internal/lint/hotalloc"
	"quest/internal/lint/loader"
	"quest/internal/lint/nogate"
	"quest/internal/lint/schemaver"
	"quest/internal/lint/seedsrc"
)

// A ScopedAnalyzer pairs an analyzer with the module-root-relative
// directory prefixes it applies to (subpackages included). An empty Dirs
// list means every package in the module.
type ScopedAnalyzer struct {
	Analyzer *analysis.Analyzer
	Dirs     []string
}

// nogateDirs are the hot-path packages where nogate enforces the local
// (single-function) nil-gating form; gateflow skips them so one defect
// yields one finding.
var nogateDirs = []string{
	"internal/mce", "internal/master", "internal/decoder",
	"internal/noc", "internal/dram", "internal/events",
}

// observerDirs are the observer packages themselves: their methods run
// past the nil boundary by design, so gateflow has nothing to check there.
var observerDirs = []string{
	"internal/tracing", "internal/heatmap", "internal/metrics",
	"internal/bwprofile",
}

// Suite returns the analyzers with their package scopes. budgets feeds the
// hotalloc analyzer (typically loaded from questvet-budgets.json; nil
// disables the budget audit but keeps the analyzer registered so
// //quest:allow(hotalloc) directives stay known).
func Suite(budgets []hotalloc.Budget) []ScopedAnalyzer {
	return []ScopedAnalyzer{
		// Packages whose map-iteration order can reach serialized output or
		// report rows — including every checker tool and command, whose
		// stdout is diffed by CI smoke jobs.
		{detrange.Analyzer, []string{
			"internal/mc", "internal/core", "internal/decoder", "internal/noc",
			"internal/ledger", "internal/heatmap", "internal/tracing",
			"internal/metrics", "internal/chart", "internal/events",
			"tools", "cmd",
		}},
		// Hot-path packages covered by the pinned alloc budgets, plus the
		// telemetry sampler whose events-off calls must stay free
		// (TestObserveCellNilAllocs pins 0 allocs/op).
		{nogate.Analyzer, nogateDirs},
		// Simulation/Monte-Carlo packages where ambient entropy would break
		// (config, seed) replayability. events is included so its wall-clock
		// reads (telemetry timestamps, the one sanctioned use) stay visibly
		// suppressed rather than silently unpoliced.
		{seedsrc.Analyzer, []string{
			"internal/mc", "internal/core", "internal/mce", "internal/master",
			"internal/decoder", "internal/noc", "internal/dram",
			"internal/noise", "internal/clifford", "internal/surface",
			"internal/distill", "internal/concat", "internal/events",
		}},
		// Schema constants are a whole-module concern.
		{schemaver.Analyzer, nil},
		// Interprocedural hot-path contract: alloc budgets and gate flow.
		{hotalloc.New(budgets), nil},
		{gateflow.New(append(append([]string{}, nogateDirs...), observerDirs...)), nil},
		// Dropped writer errors break byte identity wherever they happen.
		{errsink.Analyzer, nil},
	}
}

// Names returns the analyzer names of the suite, sorted.
func Names() []string {
	var out []string
	for _, sa := range Suite(nil) {
		out = append(out, sa.Analyzer.Name)
	}
	sort.Strings(out)
	return out
}

// GraphConfig declares the hot roots and observer vocabulary of the
// module's call graph: the Monte-Carlo engine (and the trial closures handed
// to it), the global decoder's match path, and the MCE/master cycle loops.
func GraphConfig() callgraph.Config {
	return callgraph.Config{
		Roots: []string{
			"internal/mc.Run",
			"internal/decoder.(*GlobalDecoder).Match",
			"internal/mce.(*MCE).StepCycle",
			"internal/master.(*Master).StepCycle",
		},
		ClosureRoots: []string{"internal/mc.Run"},
		ObserverPkgs: []string{
			"internal/tracing", "internal/heatmap", "internal/events",
			"internal/bwprofile", "internal/metrics", "internal/ledger",
		},
		TrackedTypes: map[string][]string{
			"internal/tracing":   {"Tracer"},
			"internal/heatmap":   {"Collector", "Set"},
			"internal/events":    {"Sampler"},
			"internal/bwprofile": {"Recorder"},
		},
	}
}

// Applies reports whether the scoped analyzer runs on importPath within
// module.
func (sa ScopedAnalyzer) Applies(module, importPath string) bool {
	if len(sa.Dirs) == 0 {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, module), "/")
	if rel == importPath && importPath != module {
		return false // not under this module at all
	}
	for _, d := range sa.Dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// Options configures a Run.
type Options struct {
	// Budgets are the hotalloc entry-point budgets, normally loaded from
	// questvet-budgets.json at the module root.
	Budgets []hotalloc.Budget
}

// Report aggregates a run over many packages.
type Report struct {
	// Root is the module root directory; emitters relativize file paths
	// against it.
	Root string
	// Module is the module import path.
	Module     string
	Active     []analysis.Diagnostic
	Suppressed []analysis.Suppressed
}

// Run checks every package in pkgs with its applicable analyzers over a
// whole-module call graph, then runs the cross-package schema-duplication
// check. pkgs is typically the result of prog.LoadModule(); the graph is
// always built over the full module so interprocedural reachability does
// not depend on the package selection.
func Run(prog *loader.Program, pkgs []*loader.Package, opts Options) (Report, error) {
	rep := Report{Root: prog.Root, Module: prog.Module}
	suite := Suite(opts.Budgets)
	known := Names()

	all, err := prog.LoadModule()
	if err != nil {
		return Report{}, fmt.Errorf("loading module for call graph: %w", err)
	}
	g := callgraph.Build(prog, all, GraphConfig())
	// A renamed entry point or budget root must fail loudly: a spec that
	// resolves to nothing silently disables its audit.
	for _, spec := range g.UnresolvedRoots() {
		rep.Active = append(rep.Active, analysis.Diagnostic{
			Analyzer: "gateflow",
			Message:  fmt.Sprintf("hot-path root %q matches no function; update questvet.GraphConfig", spec),
		})
	}
	for _, b := range opts.Budgets {
		if len(g.Lookup(b.Root)) == 0 {
			rep.Active = append(rep.Active, analysis.Diagnostic{
				Analyzer: "hotalloc",
				Message:  fmt.Sprintf("budget root %q matches no function; update questvet-budgets.json", b.Root),
			})
		}
	}

	for _, pkg := range pkgs {
		var sel []*analysis.Analyzer
		for _, sa := range suite {
			if sa.Applies(prog.Module, pkg.Path) {
				sel = append(sel, sa.Analyzer)
			}
		}
		res, err := analysis.CheckGraph(pkg, prog.Fset, g, sel, known)
		if err != nil {
			return Report{}, err
		}
		rep.Active = append(rep.Active, res.Active...)
		rep.Suppressed = append(rep.Suppressed, res.Suppressed...)
	}
	rep.Active = append(rep.Active, schemaver.Duplicates(prog.Fset, pkgs)...)
	return rep, nil
}

// Write prints the report: active diagnostics (if any), then a one-line
// suppression summary; with verbose, each suppression and its reason.
// It returns the number of active diagnostics.
func (r Report) Write(w io.Writer, verbose bool) int {
	for _, d := range r.Active {
		fmt.Fprintln(w, d)
	}
	if verbose {
		for _, s := range r.Suppressed {
			fmt.Fprintf(w, "%s: [%s] suppressed: %s (reason: %s)\n", s.Pos, s.Analyzer, s.Message, s.Reason)
		}
	}
	fmt.Fprintf(w, "questvet: %d diagnostic(s), %d suppression(s) in force\n", len(r.Active), len(r.Suppressed))
	return len(r.Active)
}
