// Package benchsuite runs the repository's performance-tracking benchmarks
// from inside a normal binary (cmd/questbench -bench-json) and renders the
// results as a stable, schema-versioned JSON report. CI runs the suite on
// every push and tools/benchdiff compares the report against the committed
// baseline (BENCH_PR6.json at the repo root), so a decoder or machine-loop
// regression shows up as a failed check instead of a surprise in the next
// paper-scale sweep.
//
// The cases cover the hot paths the observability layer instruments: exact
// and greedy global matching, the per-round local decode, the windowed flush,
// Pauli-frame updates, syndrome differencing, one Monte-Carlo threshold cell
// and the cycle-level machine loop. Each case is a standard func(*testing.B)
// driven by testing.Benchmark, so `go test -bench` and the JSON report
// exercise identical code.
package benchsuite

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/core"
	"quest/internal/decoder"
	"quest/internal/events"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/noise"
	"quest/internal/probe"
	"quest/internal/surface"
)

// Schema identifies the report layout; bump on incompatible change so
// tools/benchdiff can refuse to compare across layouts.
const Schema = "quest-bench/1"

// Result is one benchmark case's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the full suite output: measurements plus enough provenance to
// judge whether two reports are comparable (same host class, same
// parallelism) and a metrics snapshot of everything the instrumented paths
// recorded while the suite ran.
type Report struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Host       string           `json:"host"`
	Benchtime  string           `json:"benchtime"`
	Results    []Result         `json:"results"`
	Metrics    metrics.Snapshot `json:"metrics"`
}

// Case is one named benchmark.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// mkDefect builds a defect at ancilla q with denormalized coordinates, the
// same construction the decoder tests use.
func mkDefect(lat surface.Lattice, q, round int) decoder.Defect {
	r, c := lat.Coord(q)
	return decoder.Defect{
		Round: round, Qubit: q, R: r, C: c,
		IsX: lat.RoleOf(q) == surface.RoleAncillaX,
	}
}

// zDefects picks n distinct Z-ancilla defects deterministically (every other
// ancilla, wrapping) — no RNG so every run benchmarks the same matching
// problem.
func zDefects(lat surface.Lattice, n int) []decoder.Defect {
	zs := lat.Qubits(surface.RoleAncillaZ)
	defects := make([]decoder.Defect, 0, n)
	for i := 0; len(defects) < n; i += 2 {
		q := zs[i%len(zs)]
		round := i / len(zs)
		defects = append(defects, mkDefect(lat, q, round))
	}
	return defects
}

// Cases returns the suite. Every case records into reg (so the report's
// metrics section reflects exactly the suite's work, not whatever else the
// process did); reg must be non-nil.
func Cases(reg *metrics.Registry) []Case {
	bind := decoder.Binding{Instr: decoder.NewInstr(reg)}
	return []Case{
		{"decoder-exact-match-10", func(b *testing.B) {
			lat := surface.NewPlanar(9)
			g := decoder.NewGlobalDecoder(lat)
			g.Bind(bind)
			defects := zDefects(lat, 10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Match(defects)
			}
		}},
		{"decoder-greedy-match-24", func(b *testing.B) {
			lat := surface.NewPlanar(11)
			g := decoder.NewGlobalDecoder(lat)
			g.Bind(bind)
			defects := zDefects(lat, 24) // above MaxExact: greedy path
			if len(defects) <= g.MaxExact {
				b.Fatalf("case misconfigured: %d defects within exact range %d",
					len(defects), g.MaxExact)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Match(defects)
			}
		}},
		{"decoder-local-round", func(b *testing.B) {
			lat := surface.NewPlanar(5)
			ld := decoder.NewLocalDecoder(lat)
			gd := decoder.NewGlobalDecoder(lat)
			gd.Bind(bind)
			frame := decoder.NewPauliFrame()
			defects := zDefects(lat, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decoder.DecodeRound(ld, gd, frame, defects)
			}
		}},
		{"decoder-window-flush", func(b *testing.B) {
			lat := surface.NewPlanar(7)
			win := decoder.NewWindowDecoder(decoder.NewGlobalDecoder(lat), 7)
			win.Bind(bind)
			frame := decoder.NewPauliFrame()
			round := zDefects(lat, 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < 6; r++ {
					win.Absorb(round, frame)
				}
				win.Flush(frame)
			}
		}},
		{"frame-toggle", func(b *testing.B) {
			frame := decoder.NewPauliFrame()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := i & 1023
				frame.Apply(decoder.Correction{Qubit: q, FlipX: i&1 == 0})
			}
		}},
		{"history-absorb", func(b *testing.B) {
			lat := surface.NewPlanar(7)
			hist := decoder.NewHistory(lat)
			synd := make(map[int]int)
			for i, q := range lat.Qubits(surface.RoleAncillaZ) {
				synd[q] = i & 1
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hist.Absorb(synd)
			}
		}},
		{"threshold-cell-d3-batched", func(b *testing.B) {
			// One d=3 threshold cell on the lane-batched Pauli-frame engine
			// that core.Threshold runs.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Threshold([]float64{1e-3}, []int{3}, 4, 1, core.SweepObs{Probes: probe.Probes{Metrics: reg}})
			}
		}},
		{"threshold-cell-d5-batched", func(b *testing.B) {
			// A d=5 cell: how the per-lane cost scales with distance.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Threshold([]float64{1e-3}, []int{5}, 4, 1, core.SweepObs{Probes: probe.Probes{Metrics: reg}})
			}
		}},
		{"events-off-observe", func(b *testing.B) {
			// With -events off the telemetry sampler is a nil pointer and
			// every sweep progress emit hits its nil gate. This pins that
			// disabled path at 0 allocs/op — the live telemetry analogue of
			// the observers-off budgets the decoder cases pin.
			var smp *events.Sampler
			p := mc.Progress{Budget: 1 << 20, Failures: 3, WilsonLo: 0.1, WilsonHi: 0.2}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Completed = i
				smp.ObserveCell("cell", p)
			}
		}},
		{"bw-off-observe", func(b *testing.B) {
			// With -bw off the bandwidth recorder is a nil pointer and every
			// dispatch-site observe hits its nil gate. This pins that
			// disabled path at 0 allocs/op, mirroring events-off-observe.
			var rec *bwprofile.Recorder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Observe(i, bwprofile.BusLogical, bwprofile.ClassPauli, 1, 2)
			}
		}},
		{"machine-step-cycle", func(b *testing.B) {
			cfg := core.DefaultMachineConfig()
			nm := noise.Uniform(1e-4)
			cfg.Noise = &nm
			cfg.Metrics = reg
			m := core.NewMachine(cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Master().StepCycle()
			}
		}},
	}
}

// Options configures a suite run.
type Options struct {
	// Benchtime is the per-case measuring target in testing's -benchtime
	// syntax ("1s", "100x"). Empty keeps testing's default (1s). CI smoke
	// runs use "1x" to bound wall-clock.
	Benchtime string
}

// Run executes every case and assembles the report.
func Run(opts Options) Report {
	if opts.Benchtime == "" {
		opts.Benchtime = "1s"
	}
	// testing.Benchmark reads the -test.benchtime flag; register testing's
	// flags if the host binary has not, then set it explicitly.
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	_ = flag.Set("test.benchtime", opts.Benchtime)

	host, _ := os.Hostname()
	rep := Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Host:       host,
		Benchtime:  opts.Benchtime,
	}
	reg := metrics.New()
	for _, c := range Cases(reg) {
		r := testing.Benchmark(c.Fn)
		rep.Results = append(rep.Results, Result{
			Name:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	rep.Metrics = reg.Snapshot()
	return rep
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report and checks its schema: a report without one,
// or with another layout's, is refused rather than compared field by field.
func ReadReport(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, err
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("benchsuite: report schema %q, want %q", r.Schema, Schema)
	}
	return r, nil
}
