package main

import (
	"sort"
	"strings"
)

// layerOfPkg maps the module's packages (and the stdlib packages that are a
// layer's own work) to the layer names the report uses. A stdlib package
// missing here is neutral: its time is charged to the nearest calling frame
// that does map, so sort.Slice inside the decoder counts as decode.
var layerOfPkg = map[string]string{
	"quest/internal/mc": "mc",

	"quest/internal/clifford": "clifford",

	"quest/internal/awg": "awg",
	"quest/internal/isa": "awg",

	"quest/internal/noise": "noise",
	"math/rand":            "noise",

	"quest/internal/mce":       "control",
	"quest/internal/microcode": "control",
	"quest/internal/surface":   "control",

	"quest/internal/master": "master",
	"quest/internal/noc":    "master",
	"quest/internal/dram":   "master",

	"quest/internal/decoder": "decoder",

	"quest":                   "core",
	"quest/internal/core":     "core",
	"quest/internal/compiler": "core",
	"quest/internal/distill":  "core",
	"quest/internal/workload": "core",

	"quest/internal/ledger":    "observers",
	"quest/internal/bwprofile": "observers",
	"quest/internal/heatmap":   "observers",
	"quest/internal/events":    "observers",
	"quest/internal/metrics":   "observers",
	"quest/internal/bandwidth": "observers",
	"quest/internal/tracing":   "observers",
	"quest/internal/obsflags":  "observers",

	// The benchmark's own code and the profiler it runs: measurement
	// overhead, kept apart from every program layer. Its functions are
	// named "main." in the benchmark binary and by the module path in tests.
	"main":            "harness",
	"quest/perfbench": "harness",
	"runtime/pprof":   "harness",
}

// layers lists every layer name in report order.
var layers = []string{"mc", "clifford", "awg", "noise", "control", "master", "decoder",
	"core", "observers", "runtime", "harness"}

// layerOf returns the layer of a package, or "" for a neutral one. The Go
// runtime (GC, allocation, scheduling) is its own layer.
func layerOf(pkg string) string {
	if l, ok := layerOfPkg[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "racecall" || strings.HasPrefix(pkg, "__tsan") { // the race detector's runtime, under -race
		return "runtime"
	}
	return ""
}

// pkgOf extracts the import path from a Go symbol name such as
// "quest/internal/clifford.(*Tableau).CNOT" or "slices.Sort[go.shape.int]".
func pkgOf(fn string) string {
	// Compiler-generated equality and hash functions name their type's
	// package after a prefix: "type:.eq.quest/internal/surface.Coord".
	for _, p := range []string{"type:.eq.", "type:.hash."} {
		fn = strings.TrimPrefix(fn, p)
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isStdlib reports whether pkg is a standard-library import path (no dot in
// its first element, and not this module).
func isStdlib(pkg string) bool {
	first, _, _ := strings.Cut(pkg, "/")
	return !strings.Contains(first, ".") && first != "quest" && pkg != "main"
}

// attribution splits a CPU profile by layer.
type attribution struct {
	TotalNs int64
	// LayerNs charges each sample to the layer of its innermost mapped
	// frame; PkgNs to that frame's package.
	LayerNs map[string]int64
	PkgNs   map[string]int64
	// UnattributedNs counts samples with no mapped frame at all.
	UnattributedNs int64
	// RNGSeedNs counts samples inside math/rand source seeding; GCNs
	// samples inside the garbage collector. Both are subsets of TotalNs
	// that cut across the layer split.
	RNGSeedNs, GCNs int64
	// Unmapped lists module packages seen in a stack with no layer entry.
	Unmapped []string
}

func (a attribution) share(ns int64) float64 {
	if a.TotalNs == 0 {
		return 0
	}
	return float64(ns) / float64(a.TotalNs)
}

func attribute(p *profile) attribution {
	a := attribution{LayerNs: map[string]int64{}, PkgNs: map[string]int64{}}
	vi := p.valueIndex("cpu/nanoseconds")
	unmapped := map[string]bool{}
	for _, s := range p.Samples {
		var ns int64
		if vi >= 0 {
			ns = s.Values[vi]
		} else if len(s.Values) > 0 {
			ns = s.Values[0] * p.PeriodNs
		}
		a.TotalNs += ns
		layer, pkg := "", ""
		seed, gc := false, false
		for _, fn := range s.Stack {
			fp := pkgOf(fn)
			if layer == "" {
				if l := layerOf(fp); l != "" {
					layer, pkg = l, fp
				}
			}
			if !isStdlib(fp) && layerOf(fp) == "" {
				unmapped[fp] = true
			}
			seed = seed || fn == "math/rand.(*rngSource).Seed" || fn == "math/rand.seedrand"
			gc = gc || isGCFrame(fn)
		}
		if layer == "" {
			a.UnattributedNs += ns
		} else {
			a.LayerNs[layer] += ns
			a.PkgNs[pkg] += ns
		}
		if seed {
			a.RNGSeedNs += ns
		}
		if gc {
			a.GCNs += ns
		}
	}
	for p := range unmapped {
		a.Unmapped = append(a.Unmapped, p)
	}
	sort.Strings(a.Unmapped)
	return a
}

// isGCFrame reports whether fn is part of the garbage collector: background
// mark workers, mutator assists, root marking, scanning and sweeping.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject",
		"runtime.scanblock", "runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
		"runtime.bgscavenge"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
