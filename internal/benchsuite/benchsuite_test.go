package benchsuite

import (
	"bytes"
	"testing"

	"quest/internal/metrics"
)

// TestRunProducesWellFormedReport runs the whole suite at one iteration per
// case — a smoke test that every case executes and the report round-trips
// through its JSON encoding with the schema intact.
func TestRunProducesWellFormedReport(t *testing.T) {
	rep := Run(Options{Benchtime: "1x"})
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	if want := len(Cases(metrics.New())); len(rep.Results) != want {
		t.Errorf("got %d cases, want %d", len(rep.Results), want)
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		if seen[r.Name] {
			t.Errorf("duplicate case name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Iterations < 1 || r.NsPerOp <= 0 {
			t.Errorf("case %q has implausible measurement %+v", r.Name, r)
		}
	}
	// The decode cases record into the report's registry.
	found := false
	for _, h := range rep.Metrics.Histograms {
		if h.Name == "decoder.match.ns" && h.Summary.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("report metrics missing a populated decoder.match.ns histogram")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadReport(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if back.Schema != rep.Schema || len(back.Results) != len(rep.Results) {
		t.Errorf("round-trip mismatch: %+v vs %+v", back.Schema, rep.Schema)
	}
}

// TestEventsOffObserveZeroAllocs pins the suite's events-off-observe case at
// zero allocations per op: when -events is off the sampler is nil and the
// progress hook must cost one branch, nothing more.
func TestEventsOffObserveZeroAllocs(t *testing.T) {
	for _, c := range Cases(metrics.New()) {
		if c.Name != "events-off-observe" {
			continue
		}
		if r := testing.Benchmark(c.Fn); r.AllocsPerOp() != 0 {
			t.Errorf("events-off-observe: %d allocs/op, want 0", r.AllocsPerOp())
		}
		return
	}
	t.Fatal("suite is missing the events-off-observe case")
}

// TestBWOffObserveZeroAllocs pins the suite's bw-off-observe case at zero
// allocations per op: when -bw is off the recorder is nil and every
// dispatch-site observe must cost one branch, nothing more.
func TestBWOffObserveZeroAllocs(t *testing.T) {
	for _, c := range Cases(metrics.New()) {
		if c.Name != "bw-off-observe" {
			continue
		}
		if r := testing.Benchmark(c.Fn); r.AllocsPerOp() != 0 {
			t.Errorf("bw-off-observe: %d allocs/op, want 0", r.AllocsPerOp())
		}
		return
	}
	t.Fatal("suite is missing the bw-off-observe case")
}

// FuzzReadReport feeds ReadReport arbitrary bytes, seeded from WriteJSON
// output: it must never panic, must accept what the writer produces, and
// must refuse any report whose schema is not Schema.
func FuzzReadReport(f *testing.F) {
	rep := Report{Schema: Schema, GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2, Benchtime: "1x",
		Results: []Result{{Name: "decoder-exact-match-10", Iterations: 3, NsPerOp: 1.5e4, AllocsPerOp: 5, BytesPerOp: 640}}}
	reg := metrics.New()
	reg.Counter("decoder.match.calls").Add(3)
	reg.Histogram("decoder.match.ns", nil).Observe(1.5e4)
	rep.Metrics = reg.Snapshot()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var empty bytes.Buffer
	if err := (Report{Schema: Schema}).WriteJSON(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"quest-bench/0"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadReport(data)
		if err != nil {
			return
		}
		if r.Schema != Schema {
			t.Fatalf("accepted schema %q", r.Schema)
		}
		var out bytes.Buffer
		if err := r.WriteJSON(&out); err != nil {
			t.Fatalf("WriteJSON of an accepted report: %v", err)
		}
		if _, err := ReadReport(out.Bytes()); err != nil {
			t.Fatalf("writer output refused: %v\n%s", err, out.Bytes())
		}
	})
}
