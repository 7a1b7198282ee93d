package obsflags

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/events"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// resetDefaults restores process-wide state this package mutates so tests do
// not leak into each other.
func resetDefaults() {
	tracing.Default = nil
	metrics.Default = metrics.New()
}

func TestStartRejectsBadMetricsFormat(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse([]string{"-metrics", "xml"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err == nil {
		t.Fatal("Start accepted -metrics xml")
	}
}

func TestTraceLifecycle(t *testing.T) {
	defer resetDefaults()
	path := filepath.Join(t.TempDir(), "out.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-trace", path, "-trace-buf", "1024"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	tr := o.Probes().Tracer
	if tr == nil || tr.Capacity() != 1024 {
		t.Fatalf("tracer = %v (cap %d), want enabled with cap 1024", tr, tr.Capacity())
	}
	tr.Span("mce", 0, "busy", 0, 1)
	tr.Instant("master", 0, "dispatch", 0)
	var log bytes.Buffer
	o.Log = &log
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tracing.Validate(data)
	if err != nil {
		t.Fatalf("written trace invalid: %v", err)
	}
	if rep.Events != 2 || rep.Procs != 2 {
		t.Errorf("report = %+v, want 2 events on 2 procs", rep)
	}
	if !strings.Contains(log.String(), "trace summary") {
		t.Errorf("Finish did not print the track summary:\n%s", log.String())
	}
}

func TestMetricsServerServesPrometheusAndPprof(t *testing.T) {
	defer resetDefaults()
	resetDefaults()
	metrics.Default.Counter("master.dispatched").Add(5)
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Finish()
	if o.Probes().Metrics != metrics.Default {
		t.Error("Probes().Metrics should aggregate into Default while serving")
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + o.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "# TYPE quest_master_dispatched counter") ||
		!strings.Contains(body, "quest_master_dispatched 5") {
		t.Errorf("/metrics missing exposition:\n%s", body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

func TestShardRegNilWhenObservabilityOff(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Probes().Metrics != nil {
		t.Error("Probes().Metrics should be nil with no -metrics/-pprof")
	}
	if o.TraceEnabled() {
		t.Error("TraceEnabled with no -trace")
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if tracing.Default != nil {
		t.Error("Start enabled tracing without -trace")
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStartRejectsBadCIStop(t *testing.T) {
	defer resetDefaults()
	for _, bad := range []string{"-0.1", "1", "1.5"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs)
		if err := fs.Parse([]string{"-ci-stop", bad}); err != nil {
			t.Fatal(err)
		}
		err := o.Start()
		if err == nil {
			t.Errorf("Start accepted -ci-stop %s", bad)
			continue
		}
		if !strings.Contains(err.Error(), "ci-stop") {
			t.Errorf("-ci-stop %s: error %q does not name the flag", bad, err)
		}
	}
	// 0 (off) and in-range widths must pass.
	for _, good := range []string{"0", "0.05", "0.999"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs)
		if err := fs.Parse([]string{"-ci-stop", good}); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Errorf("Start rejected -ci-stop %s: %v", good, err)
		}
	}
}

func TestLedgerAndHeatmapLifecycle(t *testing.T) {
	defer resetDefaults()
	dir := t.TempDir()
	lpath := filepath.Join(dir, "run.jsonl")
	hpath := filepath.Join(dir, "heat.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-ledger", lpath, "-heatmap", hpath, "-ci-stop", "0.2", "-progress"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if o.CIStop() != 0.2 {
		t.Errorf("CIStop() = %v, want 0.2", o.CIStop())
	}
	if o.SweepProgress() == nil {
		t.Error("SweepProgress() = nil with -progress set")
	}
	lw, err := o.OpenLedger("lifecycle-test", map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if lw == nil {
		t.Fatal("OpenLedger returned nil writer with -ledger set")
	}
	lw.WriteTrial(ledger.Trial{Cell: "c", Trial: 0, Seed: ledger.SeedString(7), Fail: true})
	lw.WriteCell(ledger.Cell{Cell: "c", Seed: ledger.SeedString(7), Budget: 1, Trials: 1,
		Failures: 1, Rate: 1, WilsonLo: 0.2, WilsonHi: 1})
	heat := o.Probes().Heat
	if heat == nil {
		t.Fatal("Probes().Heat = nil with -heatmap set")
	}
	heat.Collector("lat-3x3", 3, 3).Defect(1, 1)
	var log bytes.Buffer
	o.Log = &log
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.Validate(data); err != nil {
		t.Errorf("ledgercheck rejects the flag-driven ledger: %v", err)
	}
	hdata, err := os.ReadFile(hpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heatmap.ReadFile(hdata); err != nil {
		t.Errorf("heatmap file unreadable: %v", err)
	}
	for _, want := range []string{"ledger:", "heatmap:", "defect births"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("Finish log missing %q:\n%s", want, log.String())
		}
	}
}

func TestSweepProgressRenders(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	var log bytes.Buffer
	o.Log = &log
	if err := fs.Parse([]string{"-progress"}); err != nil {
		t.Fatal(err)
	}
	render := o.SweepProgress()
	render("cell-a", mc.Progress{Completed: 10, Failures: 2, WilsonLo: 0.05, WilsonHi: 0.4})
	render("cell-a", mc.Progress{Completed: 20, Failures: 3, WilsonLo: 0.05, WilsonHi: 0.3, Done: true})
	out := log.String()
	if !strings.Contains(out, "cell-a") || !strings.Contains(out, "done") {
		t.Errorf("renderer output missing cell label or done marker: %q", out)
	}
}

// TestSweepProgressPadsStaleChars pins the \r-overwrite fix: when a shorter
// status line follows a longer one, the renderer pads to the previous line's
// width so no tail of the old line survives on screen.
func TestSweepProgressPadsStaleChars(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	var log bytes.Buffer
	o.Log = &log
	if err := fs.Parse([]string{"-progress"}); err != nil {
		t.Fatal(err)
	}
	render := o.SweepProgress()
	render("p=0.0100", mc.Progress{Completed: 1000000, Failures: 100000, WilsonLo: 0.0900, WilsonHi: 0.1899})
	render("p=0.0100", mc.Progress{Completed: 5, Failures: 1, WilsonLo: 0.01, WilsonHi: 0.06})
	render("p=0.0100", mc.Progress{Completed: 9, Failures: 1, WilsonLo: 0.01, WilsonHi: 0.05, Done: true})
	frames := strings.Split(log.String(), "\r")[1:] // leading "" before the first \r
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3: %q", len(frames), log.String())
	}
	if !strings.HasSuffix(frames[2], "\n") {
		t.Errorf("done frame does not finish the line: %q", frames[2])
	}
	// Simulate the terminal: each \r-frame overwrites the line from column
	// 0, leaving whatever it does not reach. After the short frames, the
	// visible line must be exactly the frame's own text — no tail of the
	// long first line (the pre-fix symptom: "... CI width 0.0600 0.1899").
	var screen []rune
	for i, f := range frames {
		fr := []rune(strings.TrimSuffix(f, "\n"))
		if len(fr) > len(screen) {
			screen = append(screen, make([]rune, len(fr)-len(screen))...)
		}
		copy(screen, fr)
		visible := strings.TrimRight(string(screen), " ")
		if want := strings.TrimRight(string(fr), " "); visible != want {
			t.Errorf("frame %d: screen shows %q, want %q — stale characters survive the overwrite",
				i, visible, want)
		}
	}
	// A fresh cell after Done must not inherit the old width (no spurious
	// padding on the first line of the next cell).
	log.Reset()
	render("p=0.0200", mc.Progress{Completed: 5, Failures: 1, WilsonLo: 0.01, WilsonHi: 0.06})
	if strings.Contains(log.String(), "  ") {
		t.Errorf("first frame of a new cell carries stale padding: %q", log.String())
	}
}

func TestStartRejectsNegativeTraceBuf(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse([]string{"-trace-buf", "-1"}); err != nil {
		t.Fatal(err)
	}
	err := o.Start()
	if err == nil {
		t.Fatal("Start accepted -trace-buf -1")
	}
	if !strings.Contains(err.Error(), "trace-buf") {
		t.Errorf("error %q does not name the flag", err)
	}
	// 0 (default) and positive capacities must pass.
	for _, good := range []string{"0", "1024"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs)
		if err := fs.Parse([]string{"-trace-buf", good}); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Errorf("Start rejected -trace-buf %s: %v", good, err)
		}
	}
}

// TestFinishFirstErrAggregation pins Finish's error contract: the first
// failing stage's error is returned, and every later stage still runs (so a
// broken trace file cannot suppress the ledger flush or the metrics dump).
func TestFinishFirstErrAggregation(t *testing.T) {
	defer resetDefaults()
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	// Trace and heatmap point into a directory that does not exist, so both
	// writes fail at Finish; the ledger is sabotaged below.
	tracePath := filepath.Join(dir, "missing", "trace.json")
	heatPath := filepath.Join(dir, "missing", "heat.json")
	args := []string{"-trace", tracePath, "-heatmap", heatPath,
		"-ledger", filepath.Join(dir, "run.jsonl"), "-metrics", "text"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	lw, err := o.OpenLedger("finish-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	lw.WriteCell(ledger.Cell{Cell: "c", Seed: ledger.SeedString(7), Budget: 1, Trials: 1})
	// Close the file underneath the buffered writer: the ledger stage's
	// Flush in Finish now fails too, after the trace stage already has.
	o.ledgerFile.Close()
	o.heat.Collector("g", 2, 2).Defect(0, 0)

	var log bytes.Buffer
	o.Log = &log
	finishErr := o.Finish()
	if finishErr == nil {
		t.Fatal("Finish returned nil with three failing stages")
	}
	// First error wins: the trace stage fails before ledger and heatmap.
	if !strings.Contains(finishErr.Error(), "trace.json") {
		t.Errorf("Finish returned %q, want the trace error (first failing stage)", finishErr)
	}
	// Later stages still ran: each failure is logged, and the metrics dump
	// at the end still rendered.
	for _, want := range []string{"trace:", "ledger:", "heatmap:", "-- metrics --"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("Finish log missing %q — a later stage was skipped:\n%s", want, log.String())
		}
	}
}

func TestEventsLifecycle(t *testing.T) {
	defer resetDefaults()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-events", path, "-shard", "1/2"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if !o.EventsEnabled() {
		t.Fatal("EventsEnabled() = false with -events set")
	}
	if o.Probes().Metrics != metrics.Default {
		t.Error("Probes().Metrics should aggregate into Default with -events set (snapshots carry deltas)")
	}
	if err := o.OpenEvents("events-test", map[string]string{"trials": "40"}); err != nil {
		t.Fatal(err)
	}
	if err := o.OpenEvents("events-test", nil); err == nil {
		t.Error("second OpenEvents accepted")
	}
	// The sweep progress sink must feed the sampler even without -progress.
	sink := o.SweepProgress()
	if sink == nil {
		t.Fatal("SweepProgress() = nil with -events set")
	}
	sink("cell-a", mc.Progress{Completed: 40, Failures: 2, Budget: 40, WilsonLo: 0.01, WilsonHi: 0.15, Done: true})

	var log bytes.Buffer
	o.Log = &log
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "events:") {
		t.Errorf("Finish log missing events summary:\n%s", log.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := events.Validate(data)
	if err != nil {
		t.Fatalf("flag-driven event stream invalid: %v", err)
	}
	if rep.Experiment != "events-test" || rep.ShardIndex != 1 || rep.ShardCount != 2 {
		t.Errorf("report provenance = %+v, want events-test shard 1/2", rep)
	}
	if rep.Snapshots < 1 || rep.Cells != 1 || rep.DoneCells != 1 {
		t.Errorf("report = %+v, want >=1 snapshot with one done cell", rep)
	}
	if o.Events() != nil {
		t.Error("sampler still live after Finish")
	}
}

func TestEventsSSEAndHealthz(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	// -pprof alone: the SSE endpoint and probe exist, events are SSE-only.
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Finish()

	get := func(path string) string {
		resp, err := http.Get("http://" + o.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	if got := get("/healthz"); !strings.Contains(got, `"events":false`) {
		t.Errorf("/healthz before OpenEvents = %q", got)
	}
	if err := o.OpenEvents("sse-test", nil); err != nil {
		t.Fatal(err)
	}
	if got := get("/healthz"); !strings.Contains(got, `"events":true`) {
		t.Errorf("/healthz after OpenEvents = %q", got)
	}

	// /events replays the provenance header to a late subscriber.
	resp, err := http.Get("http://" + o.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			if !strings.Contains(line, `"record":"header"`) || !strings.Contains(line, "sse-test") {
				t.Errorf("first SSE frame = %q, want replayed header", line)
			}
			return
		}
	}
	t.Fatalf("no SSE frame received: %v", sc.Err())
}

func TestStartRejectsTwoStdoutStreams(t *testing.T) {
	defer resetDefaults()
	for _, argv := range [][]string{
		{"-events", "-", "-bw", "-"},
		{"-bw", "-", "-heatmap", "-"},
		{"-trace", "-", "-events", "-"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs)
		o.Log = io.Discard
		if err := fs.Parse(argv); err != nil {
			t.Fatal(err)
		}
		err := o.Start()
		if err == nil {
			t.Fatalf("Start accepted %v: two artifacts would interleave on stdout", argv)
		}
		if !strings.Contains(err.Error(), "stdout") {
			t.Errorf("error %q does not name the stdout conflict", err)
		}
	}
}

func TestStartAllowsOneStdoutStream(t *testing.T) {
	defer resetDefaults()
	for _, argv := range [][]string{
		{"-events", "-"},
		{"-bw", "-"},
		{"-heatmap", "-"},
		{"-trace", "-"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs)
		o.Log = io.Discard
		if err := fs.Parse(argv); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Errorf("Start(%v): %v, want accepted", argv, err)
		}
	}
}

func TestStartRejectsNegativeBWWindow(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse([]string{"-bw", "x.jsonl", "-bw-window", "-3"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err == nil {
		t.Fatal("Start accepted -bw-window -3")
	}
}

func TestBWLifecycle(t *testing.T) {
	defer resetDefaults()
	path := filepath.Join(t.TempDir(), "bw.jsonl")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	var log bytes.Buffer
	o.Log = &log
	if err := fs.Parse([]string{"-bw", path, "-bw-window", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	rec := o.Probes().BW
	if rec == nil {
		t.Fatal("BW() = nil after Start with -bw")
	}
	if err := o.OpenBW("memory", map[string]string{"p": "0.001"}); err != nil {
		t.Fatal(err)
	}
	if err := o.OpenBW("memory", nil); err == nil {
		t.Fatal("OpenBW accepted a second call")
	}
	rec.Observe(0, bwprofile.BusLogical, bwprofile.ClassPrep, 1, 2)
	rec.Observe(5, bwprofile.BusSync, bwprofile.ClassSync, 1, 2)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bwprofile.Validate(data)
	if err != nil {
		t.Fatalf("written profile invalid: %v", err)
	}
	if rep.Experiment != "memory" || rep.Summary.Windows != 2 || rep.Summary.WindowCycles != 4 {
		t.Errorf("report = %+v, want experiment memory, 2 windows of 4 cycles", rep)
	}
	if !strings.Contains(log.String(), "bwreport") || !strings.Contains(log.String(), "window") {
		t.Errorf("Finish did not log the bw summary line:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "┤") {
		t.Errorf("Finish did not render the waveform:\n%s", log.String())
	}
}
