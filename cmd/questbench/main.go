// Command questbench regenerates every table and figure of the paper's
// evaluation section. Run with no arguments for everything, or name
// experiments: fig2 fig6 fig10 fig11 fig13 fig14 fig15 fig16 table1 table2
// machine concat dram threshold memory syndrome. Tables print as aligned
// text; -md renders the same tables as a Markdown report.
//
// The statistical paths (threshold, memory) accept -trials and -workers.
// Trials fan out across a worker pool with per-trial seeds mixed from a
// fixed experiment seed, so the printed rates are bit-identical for every
// -workers value — crank workers for wall-clock, crank trials for
// confidence.
//
// Observability (shared with questsim via internal/obsflags): -metrics,
// -pprof, -trace, -trace-buf, plus the experiment-ledger bundle — -ledger
// FILE streams a JSONL run ledger (validate with tools/ledgercheck),
// -progress renders live per-cell Wilson intervals on stderr, -ci-stop W
// stops each cell once its 95% interval is narrower than W, and -heatmap
// FILE writes spatial defect/matching heatmaps as JSON (ASCII renders go to
// stderr). All of it is worker-count independent.
//
// Live telemetry: -events FILE streams quest-events/1 JSONL snapshots
// (per-cell progress, trial rates, ETA, metrics deltas, runtime stats) while
// the run is in flight; with -pprof the same stream is served live over SSE
// on /events (plus a /healthz probe). Watch one or many shard streams with
// tools/questtop. Telemetry is a pure side-band: ledger, heatmap and table
// bytes are identical with events on or off.
//
// Bandwidth profiling: -bw FILE records per-bus traffic in fixed windows of
// the machine cycle clock and writes a quest-bw/1 profile at exit
// (-bw-window N sets the window width; validate and compare runs with
// tools/bwreport). Like the ledger, the profile is worker-count independent
// and a pure side-band of the sweep.
//
// Distributed sweeps: -shard i/N runs only the statistical sweep cells owned
// by shard i of N (round-robin in sweep order), each shard writing a
// complete ledger that tools/ledgermerge recombines into bytes identical to
// the 1-process run. -resume FILE restarts from a partial ledger left by an
// interrupted run, replaying recorded cells and trials instead of
// re-executing them; the finished ledger is byte-identical to an
// uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"quest/internal/benchsuite"
	"quest/internal/chart"
	"quest/internal/core"
	"quest/internal/obsflags"
	"quest/internal/workload"
)

var (
	flagMD      = flag.Bool("md", false, "render the tables as a Markdown report instead of aligned text")
	flagTrials  = flag.Int("trials", 0, "Monte-Carlo trials per statistical cell (0 = per-experiment default)")
	flagWorkers = flag.Int("workers", 0, "Monte-Carlo worker goroutines (0 = GOMAXPROCS)")
	flagBench   = flag.String("bench-json", "", "run the performance benchmark suite and write the JSON report to this path ('-' for stdout), then exit")
	flagBenchT  = flag.String("benchtime", "", "per-case benchtime for -bench-json ('1s', '100x'; default 1s)")
	// obs wires the shared observability flags (-metrics, -pprof, -trace,
	// -trace-buf, -ledger, -progress, -ci-stop, -heatmap) identically to
	// cmd/questsim.
	obs = obsflags.Register(flag.CommandLine)
	// sweep carries the observation bundle into the statistical experiment
	// drivers; assembled in main after obs.Start.
	sweep core.SweepObs
)

// trialsOr returns the -trials override, or the path's default.
func trialsOr(def int) int {
	if *flagTrials > 0 {
		return *flagTrials
	}
	return def
}

// table is one experiment's result, built once and rendered by runOne as
// text or Markdown: a header and its rows (both nil when the experiment has
// no table), then any text printed after them, such as a bar chart.
type table struct {
	header []string
	rows   [][]string
	notes  string
}

type experiment struct {
	name string
	desc string
	run  func() (table, error)
}

var experiments = []experiment{
	{"fig2", "Baseline instruction bandwidth vs qubit count (Shor 128-1024 bits)", fig2},
	{"fig6", "QECC:regular instruction ratio per workload", fig6},
	{"fig10", "Required microcode capacity vs qubits serviced per design", fig10},
	{"fig11", "Qubits serviced per MCE at a fixed 4Kb budget", fig11},
	{"fig13", "T-factory instruction overhead per workload", fig13},
	{"fig14", "Global bandwidth savings with QuEST", fig14},
	{"fig15", "Savings sensitivity to qubit error rate", fig15},
	{"fig16", "MCE throughput per technology and syndrome design", fig16},
	{"table1", "Technology parameters", table1},
	{"table2", "QECC microcode design points", table2},
	{"machine", "Cycle-level machine demo: measured (not modelled) savings", machine},
	{"concat", "Extension (§9): concatenated codes, microcode inner + software outer", concatExt},
	{"dram", "Extension: cryo-DRAM feed analysis of the instruction stream", dramExt},
	{"threshold", "Validation: logical failure rate vs physical rate and distance", threshold},
	{"memory", "Validation: logical memory through the full machine decode path", memory},
	{"syndrome", "Extension: syndrome vs instruction traffic on the global bus", syndrome},
}

func main() {
	flag.Parse()
	args := flag.Args()
	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *flagBench != "" {
		runBenchJSON(*flagBench, *flagBenchT)
		return
	}
	defer obs.Finish()
	run := experiments
	if len(args) > 0 {
		run = selectExperiments(args)
	}
	// The ledger, the telemetry stream and the bandwidth profile share one
	// provenance, so each artifact identifies the run it came from.
	// Deliberately no -workers or -md: the artifacts are byte-identical for
	// any worker count and either output format, and recording them would
	// break that.
	prov := map[string]string{
		"args":    strings.Join(args, " "),
		"trials":  strconv.Itoa(*flagTrials),
		"ci-stop": strconv.FormatFloat(obs.CIStop(), 'g', -1, 64),
	}
	lw, err := obs.OpenLedger("questbench", prov)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := obs.OpenEvents("questbench", prov); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := obs.OpenBW("questbench", prov); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The shard cursor is shared by every statistical experiment this
	// invocation runs, so cell ownership counts in global sweep order across
	// threshold and memory alike — exactly how ledgermerge re-interleaves.
	shard, err := core.NewShard(obs.Shard().Index, obs.Shard().Count)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sweep = core.SweepObs{
		Probes:   obs.Probes(),
		Ledger:   lw,
		CIWidth:  obs.CIStop(),
		Progress: obs.SweepProgress(),
		Shard:    shard,
		Resume:   obs.Resume(),
	}
	if *flagMD {
		fmt.Print("# QuEST evaluation report (regenerated)\n")
	}
	for _, e := range run {
		if err := runOne(os.Stdout, *flagMD, e); err != nil {
			fmt.Fprintf(os.Stderr, "%s experiment failed: %v\n", e.name, err)
			obs.Finish()
			os.Exit(1)
		}
	}
}

// selectExperiments resolves experiment names (case-insensitive) in the
// order given. An unknown name prints the available list and exits 2.
func selectExperiments(names []string) []experiment {
	var sel []experiment
next:
	for _, a := range names {
		for _, e := range experiments {
			if e.name == strings.ToLower(a) {
				sel = append(sel, e)
				continue next
			}
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", a)
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
		}
		os.Exit(2)
	}
	return sel
}

// runBenchJSON runs the benchsuite and writes the report to path ('-' =
// stdout).
func runBenchJSON(path, benchtime string) {
	rep := benchsuite.Run(benchsuite.Options{Benchtime: benchtime})
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench-json: %d cases written to %s\n", len(rep.Results), path)
}

// runOne runs one experiment and writes its table to w: as an
// "== name: desc ==" block of aligned text, or with md as a "## name: desc"
// Markdown section whose notes go in a fenced block.
func runOne(w io.Writer, md bool, e experiment) error {
	t, err := e.run()
	if err != nil {
		return err
	}
	if !md {
		fmt.Fprintf(w, "== %s: %s ==\n", e.name, e.desc)
		if t.header != nil {
			io.WriteString(w, core.FormatTable(t.header, t.rows))
			if t.notes != "" {
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintf(w, "%s\n", t.notes)
		return nil
	}
	fmt.Fprintf(w, "\n## %s: %s\n\n", e.name, e.desc)
	if t.header != nil {
		mdRow(w, t.header)
		seps := make([]string, len(t.header))
		for i := range seps {
			seps[i] = "---"
		}
		mdRow(w, seps)
		for _, r := range t.rows {
			mdRow(w, r)
		}
		if t.notes != "" {
			fmt.Fprintln(w)
		}
	}
	if t.notes != "" {
		fmt.Fprintf(w, "```\n%s```\n", t.notes)
	}
	return nil
}

func mdRow(w io.Writer, cells []string) {
	fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
}

func fig2() (table, error) {
	var rows [][]string
	for _, r := range core.Fig2() {
		rows = append(rows, []string{
			strconv.Itoa(r.Bits), strconv.Itoa(r.LogicalQubits), strconv.Itoa(r.Distance),
			fmt.Sprintf("%.3g", float64(r.PhysQubits)), r.Bandwidth.String(),
		})
	}
	return table{header: []string{"shor-bits", "logical-qubits", "distance", "phys-qubits", "baseline-BW"}, rows: rows}, nil
}

func fig6() (table, error) {
	var rows [][]string
	var bars []chart.Bar
	for _, r := range core.Fig6() {
		rows = append(rows, []string{
			r.Workload, fmt.Sprintf("%.3g", r.Ratio), fmt.Sprintf("10^%.1f", r.Orders),
			fmt.Sprintf("%.5f%%", 100*r.QECCFrac),
		})
		bars = append(bars, chart.Bar{Label: r.Workload, Value: r.Ratio})
	}
	return table{
		header: []string{"workload", "qecc:logical", "orders", "qecc-share"}, rows: rows,
		notes: chart.MustRender(bars, chart.Options{Log: true, Unit: "x", Width: 44}),
	}, nil
}

func fig10() (table, error) {
	var rows [][]string
	for _, r := range core.Fig10() {
		rows = append(rows, []string{
			strconv.Itoa(r.Qubits), strconv.Itoa(r.RAMBits), strconv.Itoa(r.FIFOBits),
			strconv.Itoa(r.CellBits),
		})
	}
	return table{header: []string{"qubits", "RAM-bits", "FIFO-bits", "unitcell-bits"}, rows: rows}, nil
}

func fig11() (table, error) {
	var rows [][]string
	for _, r := range core.Fig11() {
		rows = append(rows, []string{
			r.Config.String(), strconv.Itoa(r.RAM), strconv.Itoa(r.FIFO), strconv.Itoa(r.UnitCell),
		})
	}
	return table{header: []string{"memory config", "RAM", "FIFO", "unit-cell"}, rows: rows}, nil
}

func fig13() (table, error) {
	var rows [][]string
	for _, r := range core.Fig13() {
		rows = append(rows, []string{
			r.Workload, strconv.Itoa(r.DistillRounds), strconv.Itoa(r.Factories),
			fmt.Sprintf("%.3g", r.Ratio), fmt.Sprintf("10^%.1f", r.Orders),
		})
	}
	return table{header: []string{"workload", "distill-rounds", "t-factories", "tfactory:logical", "orders"}, rows: rows}, nil
}

func fig14() (table, error) {
	var rows [][]string
	var bars []chart.Bar
	for _, r := range core.Fig14() {
		rows = append(rows, []string{
			r.Workload, r.BaselineBW.String(), r.QuESTBW.String(), r.QuESTCacheBW.String(),
			fmt.Sprintf("10^%.1f", r.OrdersQuEST), fmt.Sprintf("10^%.1f", r.OrdersCache),
		})
		bars = append(bars,
			chart.Bar{Label: r.Workload + " quest", Value: r.SavingsQuEST},
			chart.Bar{Label: r.Workload + " +cache", Value: r.SavingsCache})
	}
	return table{
		header: []string{"workload", "baseline", "quest", "quest+cache", "savings", "savings+cache"}, rows: rows,
		notes: chart.MustRender(bars, chart.Options{Log: true, Unit: "x", Width: 44}) +
			fmt.Sprintf("coefficient of variation across tech/syndrome configs: %.5f%%\n",
				100*core.Fig14CoefficientOfVariation()),
	}, nil
}

func fig15() (table, error) {
	var rows [][]string
	for _, r := range core.Fig15() {
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.ErrorRate), r.Workload, strconv.Itoa(r.Distance),
			fmt.Sprintf("%.3g", r.SavingsQuEST), fmt.Sprintf("%.3g", r.SavingsCache),
			fmt.Sprintf("%.3g", r.DistillOv),
		})
	}
	return table{header: []string{"error-rate", "workload", "distance", "savings", "savings+cache", "distill-ov"}, rows: rows}, nil
}

func fig16() (table, error) {
	var rows [][]string
	for _, r := range core.Fig16() {
		rows = append(rows, []string{r.Tech, r.Schedule, r.Config.String(), strconv.Itoa(r.Qubits)})
	}
	return table{header: []string{"technology", "syndrome", "memory config", "qubits/MCE"}, rows: rows}, nil
}

func table1() (table, error) {
	var rows [][]string
	for _, t := range workload.Techs() {
		rows = append(rows, []string{
			t.Name,
			fmt.Sprintf("%.0fns", t.TPrep), fmt.Sprintf("%.0fns", t.T1),
			fmt.Sprintf("%.0fns", t.TMeas), fmt.Sprintf("%.0fns", t.TCNOT),
			fmt.Sprintf("%.0fns", t.TEcc),
		})
	}
	return table{header: []string{"parameter set", "t_prep", "t_1", "t_meas", "t_CNOT", "T_ecc"}, rows: rows}, nil
}

func table2() (table, error) {
	var rows [][]string
	for _, r := range core.Table2() {
		rows = append(rows, []string{
			r.Schedule, strconv.Itoa(r.Instructions), r.Config.String(),
			strconv.Itoa(r.JJs), fmt.Sprintf("%.1f µW", r.PowerUW),
		})
	}
	return table{header: []string{"syndrome", "no. instructions", "optimal µcode config", "no. JJs", "power"}, rows: rows}, nil
}

func concatExt() (table, error) {
	var rows [][]string
	for _, r := range core.ExtConcat() {
		rows = append(rows, []string{
			strconv.Itoa(r.Levels), strconv.Itoa(r.InnerQubits),
			fmt.Sprintf("%.3g", r.LogicalError), strconv.Itoa(r.OuterInstrs),
			fmt.Sprintf("%.3g", r.Savings),
		})
	}
	return table{header: []string{"outer-levels", "inner-qubits", "logical-error", "outer-instrs/round", "hybrid-savings"}, rows: rows}, nil
}

func dramExt() (table, error) {
	var rows [][]string
	for _, r := range core.ExtDRAM() {
		rows = append(rows, []string{
			r.Workload, strconv.Itoa(r.BaselineChannels), fmt.Sprintf("%.2e", r.QuESTUtilization),
		})
	}
	return table{header: []string{"workload", "baseline DDR channels needed", "QuEST channel utilization"}, rows: rows}, nil
}

func threshold() (table, error) {
	trows, err := core.Threshold([]float64{2e-3, 1e-3, 5e-4}, []int{3, 5}, trialsOr(200), *flagWorkers, sweep)
	if err != nil {
		return table{}, err
	}
	var rows [][]string
	for _, r := range trows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Distance),
			fmt.Sprintf("%.4f", r.FailRate),
			fmt.Sprintf("[%.4f, %.4f]", r.WilsonLo, r.WilsonHi), strconv.Itoa(r.Trials),
		})
	}
	return table{header: []string{"phys-rate", "distance", "logical-fail", "95% CI", "trials"}, rows: rows}, nil
}

func memory() (table, error) {
	var rows [][]string
	for _, p := range []float64{0, 1e-4, 5e-4} {
		r, ran, err := core.MachineMemory(p, 8, trialsOr(40), *flagWorkers, sweep)
		if err != nil {
			return table{}, err
		}
		if !ran {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Rounds),
			fmt.Sprintf("%.3f", r.FailRate()),
			fmt.Sprintf("[%.3f, %.3f]", r.WilsonLo, r.WilsonHi), strconv.Itoa(r.Trials),
		})
	}
	return table{header: []string{"phys-rate", "rounds", "logical-fail", "95% CI", "trials"}, rows: rows}, nil
}

func syndrome() (table, error) {
	var rows [][]string
	for _, r := range core.ExtSyndromeTraffic([]float64{0, 1e-4, 1e-3}, 200) {
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Cycles),
			strconv.FormatUint(r.InstructionBytes, 10), strconv.FormatUint(r.SyndromeBytes, 10),
		})
	}
	return table{header: []string{"phys-rate", "cycles", "instr-bytes (down)", "syndrome-bytes (up)"}, rows: rows}, nil
}

func machine() (table, error) {
	res, err := core.MachineDemo(50)
	if err != nil {
		return table{}, err
	}
	return table{notes: fmt.Sprintf(
		"distillation body: %d logical instructions, replayed 50x from the MCE cache\n"+
			"cycles: %d   logical retired: %d\n"+
			"baseline bus: %d bytes   QuEST bus: %d bytes\n"+
			"measured savings: %.0fx\n",
		core.RoundInstrs(), res.Cycles, res.LogicalRetired,
		res.BaselineBusBytes, res.QuESTBusBytes, res.MeasuredSavings)}, nil
}
