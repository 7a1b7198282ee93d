package main

import (
	"os"
	"strings"
	"testing"
)

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParseThresholdTable(t *testing.T) {
	rows, err := parseTable(readTestdata(t, "questbench-threshold.txt"), "threshold")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(thresholdRef) {
		t.Fatalf("%d rows, want %d", len(rows), len(thresholdRef))
	}
	for i, r := range rows {
		if r.Rate != thresholdRef[i].Rate || r.Param != thresholdRef[i].Param || r.Trials != 40 {
			t.Errorf("row %d = %+v, want cell (%g, %d) with 40 trials", i, r, thresholdRef[i].Rate, thresholdRef[i].Param)
		}
		if r.Lo > r.Fail || r.Fail > r.Hi {
			t.Errorf("row %d: rate %g outside [%g, %g]", i, r.Fail, r.Lo, r.Hi)
		}
	}
}

func TestParseMemoryTable(t *testing.T) {
	rows, err := parseTable(readTestdata(t, "questbench-memory.txt"), "memory")
	if err != nil {
		t.Fatal(err)
	}
	want := tableRow{Rate: 5e-4, Param: 8, Fail: 0.025, Lo: 0.004, Hi: 0.129, Trials: 40}
	if len(rows) != 3 || rows[2] != want {
		t.Fatalf("rows = %+v, want 3 with the last %+v", rows, want)
	}
	if _, err := parseTable(readTestdata(t, "questbench-memory.txt"), "threshold"); err == nil {
		t.Error("parsing a memory table as threshold succeeded")
	}
}

func TestParseTableRejectsMalformedRow(t *testing.T) {
	out := strings.Replace(readTestdata(t, "questbench-threshold.txt"), "[", "(", 1)
	if _, err := parseTable(out, "threshold"); err == nil {
		t.Error("malformed row accepted")
	}
}

// TestCheckRowsCountsShortTables pins that a truncated table counts its
// missing rows as failed operations rather than dropping them.
func TestCheckRowsCountsShortTables(t *testing.T) {
	rows, err := parseTable(readTestdata(t, "questbench-threshold.txt"), "threshold")
	if err != nil {
		t.Fatal(err)
	}
	var o opResult
	checkRows(&o, rows[:4], thresholdRef, 40, 0.00005)
	if o.attempted != 6 || o.failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", o.attempted, o.failed)
	}
	o = opResult{}
	checkRows(&o, rows, thresholdRef, 41, 0.00005)
	if o.failed != 6 {
		t.Errorf("trial-count mismatch failed %d rows, want 6", o.failed)
	}
}

func TestParseSimReportMatchesPin(t *testing.T) {
	got, err := parseSimReport(readTestdata(t, "questsim-distill.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := distillPins[distillReplays]; got != want {
		t.Errorf("parsed %+v, want the pin %+v", got, want)
	}
	trimmed := strings.Replace(readTestdata(t, "questsim-distill.txt"), "  logical retired:", "  retired:", 1)
	if _, err := parseSimReport(trimmed); err == nil {
		t.Error("report with a missing statistic accepted")
	}
}

func TestParseMetricsJSONAfterHeatmapRender(t *testing.T) {
	snap, err := parseMetricsJSON(readTestdata(t, "questbench-memory-metrics.stderr"))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.counter("mc.trials"); got != 120 {
		t.Errorf("mc.trials = %g, want 120 (3 cells × 40 trials)", got)
	}
	if got := snap.gauge("mc.workers"); got != 2 {
		t.Errorf("mc.workers = %g, want 2", got)
	}
	if h := snap.hist("mc.trial.ns"); h.Count != 120 || h.P50 <= 0 || h.P99 < h.P50 {
		t.Errorf("mc.trial.ns summary = %+v", h)
	}
	if snap.counter("no.such.counter") != 0 {
		t.Error("absent counter is not 0")
	}
	if _, err := parseMetricsJSON("heatmap: 1 grid(s) written\n"); err == nil {
		t.Error("stderr without a metrics object accepted")
	}
}
