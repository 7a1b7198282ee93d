package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/decoder"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/noise"
	"quest/internal/probe"
	"quest/internal/surface"
	"quest/internal/tracing"
)

// scalarThreshold is the scalar tableau oracle behind the batched engine:
// every trial re-simulates the full stabilizer tableau through the AWG
// execution units with the scalar noise.Injector, decodes with a fresh
// window decoder, and reads the logical observable off the tableau. It runs
// one trial per lane through the same cell driver as production, so any
// difference the equivalence tests see is the engine's, never the
// plumbing's.
func scalarThreshold(d int, p float64) cellEngine {
	lat := surface.NewPlanar(d)
	words := surface.CompileCycle(lat, surface.Steane, nil)
	return cellEngine{lane: 1, rows: lat.Rows, cols: lat.Cols,
		fn: func(_ int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			seed := seeds[0]
			tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(mc.Derive(seed, 0)))))
			inj := noise.NewInjector(noise.Uniform(p), int64(mc.Derive(seed, 1)))
			noisy := awg.New(tb, inj)
			clean := awg.New(tb, nil)
			run := func(u *awg.ExecutionUnit) map[int]int {
				synd := make(map[int]int)
				u.MeasSink = func(q, bit int) { synd[q] = bit }
				for _, w := range words {
					u.ExecuteWord(w)
				}
				return synd
			}
			hist := decoder.NewHistory(lat)
			frame := decoder.NewPauliFrame()
			win := decoder.NewWindowDecoder(decoder.NewGlobalDecoder(lat), d)
			b := decoder.Binding{Tracer: ctx.Trace}
			if ctx.Shard != nil {
				b.Instr = decoder.NewInstr(ctx.Shard)
			}
			if ctx.Heat != nil {
				hist.SetHeat(ctx.Heat[0])
				b.Heat = ctx.Heat[0]
			}
			win.Bind(b)
			run(clean)
			hist.Absorb(run(clean))
			// d noisy rounds: the window decoder is d rounds deep, so fewer
			// would never fill a d=5 or d=7 cell's own decode window.
			for round := 0; round < d; round++ {
				inj.SetLocation(round, 0)
				win.Absorb(hist.Absorb(run(noisy)), frame)
			}
			win.Absorb(hist.Absorb(run(clean)), frame)
			win.Flush(frame)
			logZ := lat.LogicalZ()
			raw := tb.MeasureObservable(nil, logZ)
			want := 1 - 2*frame.ParityOn(logZ, true)
			out[0] = mc.Outcome{Fail: raw != 0 && raw != want}
		}}
}

// engineSweep runs one sweep through the batched production engine or the
// scalar oracle and returns the rows, the raw ledger bytes, the heatmap JSON
// and the merged trace JSON.
func engineSweep(t *testing.T, batched bool, workers, trials int, ciWidth float64,
	rates []float64, distances []int) ([]ThresholdRow, []byte, []byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "threshold-batch-test", map[string]string{"suite": "batch_test"}, 1)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	heat := heatmap.NewSet()
	tr := tracing.New(1 << 16)
	obs := SweepObs{Probes: probe.Probes{Tracer: tr, Heat: heat}, Ledger: lw, CIWidth: ciWidth}
	engine := scalarThreshold
	if batched {
		engine = batchedThreshold
	}
	rows, err := thresholdSweep(rates, distances, trials, workers, obs, engine)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var hj, tj bytes.Buffer
	if err := heat.WriteJSON(&hj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; enlarge it", tr.Dropped())
	}
	if err := tr.WriteJSON(&tj); err != nil {
		t.Fatalf("trace WriteJSON: %v", err)
	}
	return rows, buf.Bytes(), hj.Bytes(), tj.Bytes()
}

// TestThresholdBatchedMatchesScalar pins the batched engine's whole contract:
// for every cell, Result rows, ledger bytes, heat JSON and (on fixed
// budgets) the merged trace JSON are byte-identical to the scalar tableau
// oracle, across worker counts (including lane-count
// mismatches), trial counts that leave a ragged final 64-trial lane, and CI
// early stop. The scalar engine runs at workers=1 as the reference.
func TestThresholdBatchedMatchesScalar(t *testing.T) {
	rates := []float64{2e-3, 4e-3}
	for _, tc := range []struct {
		name     string
		trials   int
		ciWidth  float64
		distance int
	}{
		{"single-trial", 1, 0, 3},
		{"sub-lane", 7, 0, 3},
		{"full-lane", 64, 0, 3},
		{"ragged", 100, 0, 3},
		{"two-lanes-ragged", 130, 0, 3},
		{"ci-stop", 120, 0.15, 3},
		{"d5-ragged", 30, 0, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dists := []int{tc.distance}
			wantRows, wantLed, wantHeat, wantTrace := engineSweep(t, false, 1, tc.trials, tc.ciWidth, rates, dists)
			if !bytes.Contains(wantTrace, []byte(`"window"`)) {
				t.Fatal("oracle trace has no decoder window spans; the trace comparison is vacuous")
			}
			for _, workers := range []int{1, 8} {
				rows, led, heat, trace := engineSweep(t, true, workers, tc.trials, tc.ciWidth, rates, dists)
				if !reflect.DeepEqual(rows, wantRows) {
					t.Errorf("workers=%d: batched rows differ from scalar oracle:\nbatched: %+v\nscalar:  %+v",
						workers, rows, wantRows)
				}
				if !bytes.Equal(led, wantLed) {
					t.Errorf("workers=%d: batched ledger bytes differ from scalar oracle", workers)
				}
				if !bytes.Equal(heat, wantHeat) {
					t.Errorf("workers=%d: batched heat JSON differs from scalar oracle", workers)
				}
				// Traces observe execution, so under CI early stop they also
				// see the overrun trials, whose count depends on lane width
				// and worker count; compare them on fixed budgets only.
				if tc.ciWidth == 0 && !bytes.Equal(trace, wantTrace) {
					t.Errorf("workers=%d: batched trace JSON differs from scalar oracle", workers)
				}
			}
			if _, err := ledger.Validate(wantLed); err != nil {
				t.Fatalf("ledgercheck rejects the sweep ledger: %v", err)
			}
		})
	}
}

// TestThresholdRoundsTrackDistance is the regression test for the
// hardcoded-4-rounds bug: every trial must absorb d noisy rounds plus the
// final clean round, so the per-trial decoder.window.rounds count tracks the
// code distance (the decode window is d rounds deep and must fill exactly
// once before the final flush). Both engines are checked.
func TestThresholdRoundsTrackDistance(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		for _, batched := range []bool{false, true} {
			reg := metrics.New()
			engine := scalarThreshold
			if batched {
				engine = batchedThreshold
			}
			_, _ = thresholdSweep([]float64{2e-3}, []int{d}, 1, 1, SweepObs{Probes: probe.Probes{Metrics: reg}}, engine)
			got := reg.Counter("decoder.window.rounds").Value()
			want := uint64(d + 1) // d noisy rounds + the final clean round
			if got != want {
				t.Errorf("d=%d batched=%v: %d window rounds absorbed per trial, want %d",
					d, batched, got, want)
			}
		}
	}
}
