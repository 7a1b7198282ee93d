package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// traced is the per-layer run. For the first two fifths of d it alternates
// the workload's invocation without and with -metrics json (the program's
// own counters and histograms, on the path production runs), which also
// gives the tracing overhead. For the rest it runs the layer harness in
// this process under a CPU profile, with spans around every layer call.
func traced(iv *invoker, d time.Duration, traceDir string) ([]metric, error) {
	w := iv.w
	start := time.Now()
	iv.run(1)
	var plain, withMetrics []float64
	var snap metricsSnap
	var artifacts runResult
	for phase := start.Add(d * 2 / 5); len(withMetrics) < 2 || time.Now().Before(phase); {
		if iv.ctx.Err() != nil {
			break
		}
		// Alternate which of the pair runs first, so drift in the host's
		// speed does not favour either side.
		var r, t runResult
		if len(plain)%2 == 0 {
			r, _ = iv.run(w.work)
			t, _ = iv.run(w.work, "-metrics", "json")
		} else {
			t, _ = iv.run(w.work, "-metrics", "json")
			r, _ = iv.run(w.work)
		}
		plain = append(plain, r.wall)
		withMetrics = append(withMetrics, t.wall)
		artifacts = r
		if t.err == nil {
			s, err := parseMetricsJSON(t.stderr)
			iv.ops.attempted++
			if err != nil {
				iv.ops.failed++
				iv.ops.errs = append(iv.ops.errs, err.Error())
			}
			snap = s
		}
	}
	overhead := median(withMetrics) / median(plain)

	hr, err := runHarness(w, iv.seed, start.Add(d))
	if err != nil {
		return nil, fmt.Errorf("layer harness: %w", err)
	}
	iv.ops.attempted += hr.trials
	iv.ops.failed += len(hr.errs)
	iv.ops.errs = append(iv.ops.errs, hr.errs...)
	for i, e := range hr.errs {
		if i < 5 {
			fmt.Fprintln(os.Stderr, "harness:", e)
		}
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, iv.seed))
	if err := writeSpans(spanFile, hr.spans); err != nil {
		return nil, err
	}

	ms := programMetrics(snap)
	ms = append(ms, artifactMetrics(artifacts.dir)...)
	ms = append(ms, harnessMetrics(hr)...)
	ms = append(ms, metric{"trace.overhead_ratio", overhead, "ratio"})

	fmt.Printf("per-layer (traced run): %d invocation pairs without/with -metrics json; "+
		"layer harness ran %d trials in %.2f s; spans in %s\n", len(plain), hr.trials, hr.wallSeconds, spanFile)
	fmt.Printf("  trace.overhead_ratio = median wall with -metrics json / without = %.4f / %.4f s\n",
		median(withMetrics), median(plain))
	printHistograms(snap)
	printSpans(hr)
	printLayers(hr)
	for _, m := range ms {
		fmt.Printf("  %-32s %-14s %.6g\n", m.Name, m.Unit, m.Value)
	}
	return ms, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// programMetrics takes the counters the program itself records. Simulated
// quantities (µops, cycles, bus bytes) are not host time: a change that only
// speeds up the simulator must leave them identical.
func programMetrics(s metricsSnap) []metric {
	var ms []metric
	count := func(name string) { ms = append(ms, metric{name, s.counter(name), "count"}) }
	count("mc.trials")
	ms = append(ms, metric{"mc.worker_utilization", s.gauge("mc.worker_utilization"), "ratio"})
	for _, c := range []string{"calls", "defects", "exact", "greedy", "unionfind"} {
		count("decoder.match." + c)
	}
	// Local (LUT) resolution is counted by the MCE on the machine path and
	// by the decoder on the standalone path; both count the same event.
	local := s.counter("decoder.local.resolved") + s.counter("mce.defects.local")
	escalated := s.counter("decoder.local.escalated") + s.counter("mce.defects.escalated")
	ms = append(ms, metric{"decoder.local.resolve_ratio", ratio(local, local+escalated), "ratio"})
	count("mce.microops")
	count("mce.cycles")
	hits, loads := s.counter("mce.cache.hits"), s.counter("mce.cache.loads")
	ms = append(ms, metric{"mce.cache.hit_ratio", ratio(hits, hits+loads), "ratio"})
	count("mce.stalled.t")
	for _, c := range []string{"cycles", "dispatched", "escalated", "global.decodes"} {
		count("master." + c)
	}
	for _, bus := range []string{"logical", "cache", "sync", "syndrome"} {
		name := "master.bus." + bus + ".bytes"
		ms = append(ms, metric{name, s.counter(name), "bytes"})
	}
	return ms
}

// artifactMetrics sizes the observer artifacts the invocation wrote (none
// outside memory-sweep).
func artifactMetrics(dir string) []metric {
	var ms []metric
	for _, a := range [][2]string{{"ledger.bytes", "ledger.jsonl"}, {"bw.bytes", "bw.jsonl"}, {"heatmap.bytes", "heatmap.json"}} {
		var size float64
		if fi, err := os.Stat(filepath.Join(dir, a[1])); err == nil {
			size = float64(fi.Size())
		}
		ms = append(ms, metric{a[0], size, "bytes"})
	}
	return ms
}

// harnessMetrics turns the harness profile into layer shares of CPU time,
// plus the allocation rates per harness trial.
func harnessMetrics(hr harnessResult) []metric {
	a := hr.attr
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_share", a.share(a.LayerNs[l]), "ratio"})
	}
	ms = append(ms,
		metric{"unattributed.share", a.share(a.UnattributedNs), "ratio"},
		metric{"mce.self_share", a.share(a.PkgNs["quest/internal/mce"]), "ratio"},
		metric{"microcode.self_share", a.share(a.PkgNs["quest/internal/microcode"]), "ratio"},
		metric{"clifford.self_s", ratio(float64(a.LayerNs["clifford"])/1e9, float64(hr.trials)), "s/trial"},
		metric{"noise.rng_seed_share", a.share(a.RNGSeedNs), "ratio"},
		metric{"runtime.gc_share", a.share(a.GCNs), "ratio"},
		metric{"alloc_bytes_per_trial", ratio(float64(hr.allocBytes), float64(hr.trials)), "bytes/trial"},
		metric{"allocs_per_trial", ratio(float64(hr.allocs), float64(hr.trials)), "allocs/trial"},
		metric{"harness.trials", float64(hr.trials), "count"},
	)
	return ms
}

// printHistograms prints the program's latency histograms. They are in the
// report, not the JSON line: each is empty, so exactly 0, on the workloads
// that bypass its layer.
func printHistograms(s metricsSnap) {
	fmt.Println("  program latency histograms (-metrics json; n = samples):")
	for _, h := range []struct{ metric, hist, q string }{
		{"mc.trial_ns.p50", "mc.trial.ns", "p50"},
		{"mc.trial_ns.p99", "mc.trial.ns", "p99"},
		{"decoder.match_ns.p99", "decoder.match.ns", "p99"},
		{"decoder.window.flush_ns.p99", "decoder.window.flush.ns", "p99"},
		{"mce.cycle_ns.p50", "mce.cycle.ns", "p50"},
		{"master.decode_ns.p99", "master.decode.ns", "p99"},
	} {
		hs := s.hist(h.hist)
		v := hs.P50
		if h.q == "p99" {
			v = hs.P99
		}
		fmt.Printf("    %-28s ns  %.6g (n=%.0f)\n", h.metric, v, hs.Count)
	}
}

// printSpans prints per-name span statistics and the harness-measured call
// latencies (awg.execute_word_ns.p50, core.new_machine_s,
// core.machine_reset_ns.p50), which like the histograms are 0 on workloads
// that never make the call.
func printSpans(hr harnessResult) {
	st := spanStats(hr.spans)
	byName := map[string]spanStat{}
	fmt.Println("  harness spans (self = duration minus time covered by child spans):")
	fmt.Printf("    %-38s %9s %12s %12s %12s %12s\n", "span", "count", "total_s", "self_s", "p50_ns", "p99_ns")
	for _, s := range st {
		byName[s.Name] = s
		fmt.Printf("    %-38s %9d %12.6f %12.6f %12.0f %12.0f\n", s.Name, s.Count,
			float64(s.TotalNs)/1e9, float64(s.SelfNs)/1e9, s.P50, s.P99)
	}
	fmt.Printf("    %-28s ns  %.6g (n=%d)\n", "awg.execute_word_ns.p50", byName["awg.ExecuteWord"].P50, byName["awg.ExecuteWord"].Count)
	nm := byName["core.NewMachine"]
	fmt.Printf("    %-28s s   %.6g (n=%d)\n", "core.new_machine_s", ratio(float64(nm.TotalNs)/1e9, float64(nm.Count)), nm.Count)
	fmt.Printf("    %-28s ns  %.6g (n=%d)\n", "core.machine_reset_ns.p50", byName["core.Machine.Reset"].P50, byName["core.Machine.Reset"].Count)
}

func printLayers(hr harnessResult) {
	a := hr.attr
	fmt.Printf("  harness CPU profile by layer (%.3f s of samples):\n", float64(a.TotalNs)/1e9)
	for _, l := range layers {
		fmt.Printf("    %-10s %6.2f%%\n", l, 100*a.share(a.LayerNs[l]))
	}
	fmt.Printf("    %-10s %6.2f%%\n", "(none)", 100*a.share(a.UnattributedNs))
	if len(a.Unmapped) > 0 {
		fmt.Printf("    module packages with no layer: %s\n", strings.Join(a.Unmapped, ", "))
	}
}
