// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the binaries users run (questbench, questsim),
// built from the checkout by run.sh, as child processes one at a time,
// checks every output, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1) with a JSON summary as the last line.
//
//	bash _perfbench/run.sh --workload threshold-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads: threshold-sweep, memory-sweep, machine-distill (see
// workloads.go for each one's rationale).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"quest/internal/core"
)

// runLimit bounds one benchmark run, children included.
const runLimit = 170 * time.Second

// minReps is the fewest measured invocations a run makes, however short
// --seconds is.
const minReps = 3

// metric is one named value of the final JSON line.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: threshold-sweep, memory-sweep, machine-distill")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --trace 0|1, --seconds ≥ 1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build")
	bin := filepath.Join(out, "bin", w.bin)
	if _, err := os.Stat(bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (build with run.sh)\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	iv := &invoker{w: w, ctx: ctx, bin: bin, seed: *seed,
		outDir: filepath.Join(out, "runs", fmt.Sprintf("%s-trace%d", w.name, *trace))}
	if err := os.RemoveAll(iv.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printProvenance(root, w, *seed, *seconds, *trace)

	var ms []metric
	if *trace == 0 {
		ms = measure(iv, time.Duration(*seconds)*time.Second)
	} else {
		ms, err = traced(iv, time.Duration(*seconds)*time.Second, filepath.Join(out, "trace"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		return 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{iv.ops.failed == 0 && len(iv.ops.errs) == 0, iv.ops.attempted, iv.ops.failed, map[string]metric{}}
	for _, m := range ms {
		res.Metrics[m.Name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure runs the workload at its measured size until d has passed (at
// least minReps times), each followed by one minimal-work invocation for
// setup_s, and reports the end-to-end metrics.
func measure(iv *invoker, d time.Duration) []metric {
	w := iv.w
	iv.run(1) // pages the binary in; checked and counted, not timed
	var walls, rates, uopRates, rss, setups []float64
	for deadline := time.Now().Add(d); len(walls) < minReps || time.Now().Before(deadline); {
		if iv.ctx.Err() != nil {
			break
		}
		r, o := iv.run(w.work)
		walls = append(walls, r.wall)
		rates = append(rates, o.work/r.wall)
		uopRates = append(uopRates, o.simUops/r.wall)
		rss = append(rss, float64(r.rssKB)/1024)
		s, _ := iv.run(1)
		setups = append(setups, s.wall)
	}
	failedShare := 0.0
	if iv.ops.attempted > 0 {
		failedShare = float64(iv.ops.failed) / float64(iv.ops.attempted)
	}
	fmt.Printf("end-to-end (tracing off, %d measured invocations of %d %s, each followed by a 1-%s set-up invocation):\n",
		len(walls), w.work, w.unit, strings.TrimSuffix(w.unit, "s"))
	show := func(name, unit string, xs []float64) {
		fmt.Printf("  %-15s %-10s %s\n", name, unit, summarize(xs, strings.HasSuffix(unit, "/s")))
	}
	show("wall_s", "s", walls)
	show("trials_per_s", "trials/s", rates)
	if w.unit == "replays" {
		fmt.Println("  (machine-distill: one trial = one cached distillation replay)")
		show("sim_uops_per_s", "µops/s", uopRates)
	} else {
		fmt.Println("  sim_uops_per_s  µops/s     n/a: questbench's sweep tables report no simulated µop count")
	}
	show("setup_s", "s", setups)
	show("peak_rss_mb", "MB", rss)
	fmt.Printf("  %-15s %-10s lower quartile %.6g (reported: the floor of the child's max RSS; the excess above it\n"+
		"                             follows host-dependent GC timing between the 2 workers)\n", "peak_rss_mb", "MB", quantile(rss, 0.25))
	fmt.Printf("  %-15s %-10s %.6g (%d of %d operations failed)\n", "failed_share", "ratio", failedShare,
		iv.ops.failed, iv.ops.attempted)
	return []metric{
		{"wall_s", median(walls), "s"},
		{"trials_per_s", median(rates), "trials/s"},
		{"setup_s", median(setups), "s"},
		{"peak_rss_mb", quantile(rss, 0.25), "MB"},
	}
}

func printProvenance(root string, w *workload, seed int64, seconds, trace int) {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, trace)
	fmt.Printf("provenance: nproc=%d GOMAXPROCS=%d go=%s revision=%s source_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRevision(root), sourceDigest(root))
	fmt.Printf("generator: closed loop, 1 thread, one child process at a time; program -workers %d\n", workers)
	fmt.Printf("seed: --seed reaches questsim (-seed) and the layer harness only; questbench has no -seed flag "+
		"and its sweeps use the fixed core.ExperimentSeed %#x\n", core.ExperimentSeed)
	fmt.Printf("why %s: %s\n", w.name, w.why)
}

// gitRevision reads the checked-out commit from .git without running git
// (which would read configuration outside the checkout).
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod (paths and
// contents, sorted), skipping hidden, underscore and testdata directories
// the go tool ignores — so it identifies the code under test even in a
// checkout that is not a git repository.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		n := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
