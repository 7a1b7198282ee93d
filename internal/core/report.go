package core

import (
	"fmt"
	"math"
	"strings"

	"quest/internal/workload"
)

// MarkdownReport regenerates the entire evaluation as a self-contained
// Markdown document — the live counterpart of EXPERIMENTS.md, produced from
// the current code rather than a past run (`questbench -md > REPORT.md`).
// Slow statistical sections (threshold, machine memory) run with the given
// trial count (zero skips them) fanned over `workers` goroutines (<=0 means
// GOMAXPROCS); the statistical numbers do not depend on the worker count.
func MarkdownReport(statTrials, workers int) string {
	var b strings.Builder
	b.WriteString("# QuEST evaluation report (regenerated)\n\n")
	b.WriteString("Operating point: Projected_D technology, Steane syndrome, physical error rate 1e-4.\n")

	section := func(title string) { fmt.Fprintf(&b, "\n## %s\n\n", title) }
	row := func(cells ...string) {
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	header := func(cells ...string) {
		row(cells...)
		seps := make([]string, len(cells))
		for i := range seps {
			seps[i] = "---"
		}
		row(seps...)
	}

	section("Figure 2 — baseline bandwidth vs machine size (Shor)")
	header("bits", "logical qubits", "distance", "physical qubits", "baseline BW")
	for _, r := range Fig2() {
		row(itoa(r.Bits), itoa(r.LogicalQubits), itoa(r.Distance),
			fmt.Sprintf("%.3g", float64(r.PhysQubits)), r.Bandwidth.String())
	}

	section("Figure 6 — QECC:regular instruction ratio")
	header("workload", "ratio", "orders")
	for _, r := range Fig6() {
		row(r.Workload, fmt.Sprintf("%.3g", r.Ratio), fmt.Sprintf("10^%.1f", r.Orders))
	}

	section("Figure 10 — microcode capacity scaling")
	header("qubits", "RAM bits", "FIFO bits", "unit-cell bits")
	for _, r := range Fig10() {
		row(itoa(r.Qubits), itoa(r.RAMBits), itoa(r.FIFOBits), itoa(r.CellBits))
	}

	section("Figure 11 — qubits serviced per MCE at 4 Kb")
	header("memory config", "RAM", "FIFO", "unit cell")
	for _, r := range Fig11() {
		row(r.Config.String(), itoa(r.RAM), itoa(r.FIFO), itoa(r.UnitCell))
	}

	section("Figure 13 — T-factory instruction overhead")
	header("workload", "rounds", "factories", "ratio")
	for _, r := range Fig13() {
		row(r.Workload, itoa(r.DistillRounds), itoa(r.Factories), fmt.Sprintf("%.3g", r.Ratio))
	}

	section("Figure 14 — global bandwidth savings")
	header("workload", "baseline", "QuEST", "QuEST+cache", "savings", "+cache")
	for _, r := range Fig14() {
		row(r.Workload, r.BaselineBW.String(), r.QuESTBW.String(), r.QuESTCacheBW.String(),
			fmt.Sprintf("10^%.1f", r.OrdersQuEST), fmt.Sprintf("10^%.1f", r.OrdersCache))
	}
	fmt.Fprintf(&b, "\nCoefficient of variation across tech/syndrome configs: %.5f%%.\n",
		100*Fig14CoefficientOfVariation())

	section("Figure 15 — sensitivity to physical error rate")
	header("rate", "workload", "distance", "savings", "+cache", "distill ov")
	for _, r := range Fig15() {
		row(fmt.Sprintf("%.0e", r.ErrorRate), r.Workload, itoa(r.Distance),
			fmt.Sprintf("%.3g", r.SavingsQuEST), fmt.Sprintf("%.3g", r.SavingsCache),
			fmt.Sprintf("%.3g", r.DistillOv))
	}

	section("Figure 16 — MCE throughput by technology × syndrome")
	header("technology", "syndrome", "config", "qubits/MCE")
	for _, r := range Fig16() {
		row(r.Tech, r.Schedule, r.Config.String(), itoa(r.Qubits))
	}

	section("Table 1 — technology parameters")
	header("set", "t_prep", "t_1", "t_meas", "t_CNOT", "T_ecc")
	for _, t := range workload.Techs() {
		row(t.Name, ns(t.TPrep), ns(t.T1), ns(t.TMeas), ns(t.TCNOT), ns(t.TEcc))
	}

	section("Table 2 — QECC microcode design points")
	header("syndrome", "instructions", "optimal config", "JJs", "power")
	for _, r := range Table2() {
		row(r.Schedule, itoa(r.Instructions), r.Config.String(), itoa(r.JJs),
			fmt.Sprintf("%.1f µW", r.PowerUW))
	}

	section("Extensions")
	header("outer levels", "inner qubits", "logical error", "hybrid savings")
	for _, r := range ExtConcat() {
		row(itoa(r.Levels), itoa(r.InnerQubits), fmt.Sprintf("%.3g", r.LogicalError),
			fmt.Sprintf("%.3g", r.Savings))
	}
	b.WriteString("\n")
	header("workload", "baseline DDR channels", "QuEST utilization")
	for _, r := range ExtDRAM() {
		row(r.Workload, itoa(r.BaselineChannels), fmt.Sprintf("%.2e", r.QuESTUtilization))
	}

	if statTrials > 0 {
		section("Validation — logical failure rates (statistical)")
		header("phys rate", "distance", "fail rate", "95% CI", "trials")
		// An empty SweepObs never shards or resumes, so no error is possible.
		rows, _ := Threshold([]float64{1e-3, 5e-4}, []int{3, 5}, statTrials, workers, SweepObs{})
		for _, r := range rows {
			row(fmt.Sprintf("%.0e", r.PhysRate), itoa(r.Distance),
				fmt.Sprintf("%.4f", r.FailRate),
				fmt.Sprintf("[%.4f, %.4f]", r.WilsonLo, r.WilsonHi), itoa(r.Trials))
		}
		if mem, _, err := MachineMemory(1e-4, 6, statTrials, workers, SweepObs{}); err == nil {
			fmt.Fprintf(&b, "\nMachine-level memory at p=1e-4 over %d rounds: %.3f failure rate "+
				"(95%% CI [%.3f, %.3f], %d trials).\n",
				mem.Rounds, mem.FailRate(), mem.WilsonLo, mem.WilsonHi, mem.Trials)
		}
	}

	section("Cycle-level machine demo")
	if res, err := MachineDemo(20); err == nil {
		fmt.Fprintf(&b, "Cached distillation loop replayed 20×: %d instructions retired over %d cycles; "+
			"baseline bus %d B vs QuEST bus %d B — **measured savings %.0f×**.\n",
			res.LogicalRetired, res.Cycles, res.BaselineBusBytes, res.QuESTBusBytes, res.MeasuredSavings)
	}
	return b.String()
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func ns(v float64) string {
	if v >= 1000 && math.Mod(v, 1000) == 0 {
		return fmt.Sprintf("%.0fµs", v/1000)
	}
	return fmt.Sprintf("%.0fns", v)
}
