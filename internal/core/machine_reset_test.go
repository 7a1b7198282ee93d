package core

import (
	"bytes"
	"reflect"
	"testing"

	"quest/internal/bandwidth"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/metrics"
	"quest/internal/noise"
)

// memoryTrialFor drives one machine through the memory-experiment trial
// sequence (the memoryEngine trial body) and returns the measured logical
// bit.
func memoryTrialFor(t *testing.T, m *Machine, rounds int) int {
	t.Helper()
	mm := m.Master()
	mm.StepCycle()
	if err := mm.Dispatch(0, isa.LogicalInstr{Op: isa.LPrep0, Target: 0}); err != nil {
		t.Fatalf("Dispatch prep: %v", err)
	}
	for c := 0; c < rounds; c++ {
		mm.StepCycle()
	}
	if err := mm.Dispatch(0, isa.LogicalInstr{Op: isa.LMeasZ, Target: 0}); err != nil {
		t.Fatalf("Dispatch meas: %v", err)
	}
	reps, ok := mm.RunUntilDrained(rounds + 50)
	if !ok {
		t.Fatal("machine did not drain")
	}
	got := -1
	for _, r := range reps {
		for _, res := range r.Results {
			got = res.Bit
		}
	}
	return got
}

// memoryMachineConfig is the machine shape the pooled memory trials use.
func memoryMachineConfig(seed int64, reg *metrics.Registry, heat *heatmap.Set, p float64) MachineConfig {
	cfg := DefaultMachineConfig()
	cfg.PatchesPerTile = 1
	cfg.Seed = seed
	cfg.DecodeWindow = cfg.Distance
	cfg.Metrics = reg
	cfg.Heat = heat
	nm := noise.Uniform(p)
	cfg.Noise = &nm
	return cfg
}

// TestMachineResetMatchesFresh pins the pooled-machine contract behind
// MachineMemory: a machine that has already run a full trial and is
// then Reset to a new seed must be observationally identical to a machine
// freshly built with that seed — same logical outcome, same deterministic
// instruments (counters, gauges, histogram observation counts; sums are wall
// clock), same heatmaps, same bus accounting. A reset gap anywhere in the
// MCE/master/decoder/substrate chain shows up here as a diverging trial.
func TestMachineResetMatchesFresh(t *testing.T) {
	const (
		p      = 2e-3
		rounds = 6
		warm   = int64(12345)
		seed   = int64(67890)
	)

	regFresh := metrics.New()
	heatFresh := heatmap.NewSet()
	fresh := NewMachine(memoryMachineConfig(seed, regFresh, heatFresh, p))
	bitFresh := memoryTrialFor(t, fresh, rounds)

	// The pooled machine first runs a whole trial at a different seed into
	// throwaway observers, accumulating the mutable state Reset must rewind.
	pooled := NewMachine(memoryMachineConfig(warm, metrics.New(), heatmap.NewSet(), p))
	memoryTrialFor(t, pooled, rounds)

	regReset := metrics.New()
	heatReset := heatmap.NewSet()
	pooled.Reset(seed, regReset, nil, heatReset, nil)
	bitReset := memoryTrialFor(t, pooled, rounds)

	if bitFresh != bitReset {
		t.Errorf("logical outcome: fresh = %d, reset = %d", bitFresh, bitReset)
	}

	sf, sr := regFresh.Snapshot(), regReset.Snapshot()
	if !reflect.DeepEqual(sf.Counters, sr.Counters) {
		t.Errorf("counters diverge:\nfresh: %+v\nreset: %+v", sf.Counters, sr.Counters)
	}
	if !reflect.DeepEqual(sf.Gauges, sr.Gauges) {
		t.Errorf("gauges diverge:\nfresh: %+v\nreset: %+v", sf.Gauges, sr.Gauges)
	}
	if len(sf.Histograms) != len(sr.Histograms) {
		t.Fatalf("histogram sets diverge: %d vs %d", len(sf.Histograms), len(sr.Histograms))
	}
	for i := range sf.Histograms {
		hf, hr := sf.Histograms[i], sr.Histograms[i]
		if hf.Name != hr.Name || hf.Summary.Count != hr.Summary.Count {
			t.Errorf("histogram %s: fresh count %d, reset (%s) count %d",
				hf.Name, hf.Summary.Count, hr.Name, hr.Summary.Count)
		}
	}

	var jf, jr bytes.Buffer
	if err := heatFresh.WriteJSON(&jf); err != nil {
		t.Fatalf("fresh heat: %v", err)
	}
	if err := heatReset.WriteJSON(&jr); err != nil {
		t.Fatalf("reset heat: %v", err)
	}
	if !bytes.Equal(jf.Bytes(), jr.Bytes()) {
		t.Errorf("heat JSON diverges:\nfresh: %s\nreset: %s", jf.Bytes(), jr.Bytes())
	}

	if a, b := fresh.Master().InstructionBusBytes(), pooled.Master().InstructionBusBytes(); a != b {
		t.Errorf("instruction bus bytes: fresh %d, reset %d", a, b)
	}
	ef, gf := fresh.Master().Stats()
	er, gr := pooled.Master().Stats()
	if ef != er || gf != gr {
		t.Errorf("master stats: fresh (%d,%d), reset (%d,%d)", ef, gf, er, gr)
	}
	tf, tr := fresh.Master().Tiles()[0], pooled.Master().Tiles()[0]
	if a, b := tf.Store().BitsStreamed(), tr.Store().BitsStreamed(); a != b {
		t.Errorf("microcode bits streamed: fresh %d, reset %d", a, b)
	}
}

// TestMachineResetBusMetricsMatchFresh is the bus-accounting slice of the
// pooling contract (satellite of the bandwidth profiler): every master bus
// counter — the local bandwidth.Counter meters AND the registry counters
// they Bridge into — must read identically whether a trial ran on a fresh
// machine or on a pooled machine Reset after a previous trial. A Reset that
// forgot Counter.Reset would carry the warm trial's traffic forward; a
// Reset that re-Bridged without zeroing (or double-bridged) would double
// the registry's view.
func TestMachineResetBusMetricsMatchFresh(t *testing.T) {
	const (
		p      = 2e-3
		rounds = 6
		warm   = int64(424242)
		seed   = int64(97531)
	)

	regFresh := metrics.New()
	fresh := NewMachine(memoryMachineConfig(seed, regFresh, nil, p))
	memoryTrialFor(t, fresh, rounds)

	pooled := NewMachine(memoryMachineConfig(warm, metrics.New(), nil, p))
	memoryTrialFor(t, pooled, rounds)
	regReset := metrics.New()
	pooled.Reset(seed, regReset, nil, nil, nil)
	memoryTrialFor(t, pooled, rounds)

	fm, pm := fresh.Master(), pooled.Master()
	buses := []struct {
		name        string
		fresh, pool *bandwidth.Counter
	}{
		{"logical", &fm.Logical, &pm.Logical},
		{"sync", &fm.Sync, &pm.Sync},
		{"cache", &fm.Cache, &pm.Cache},
		{"syndrome", &fm.Syndrome, &pm.Syndrome},
	}
	for _, b := range buses {
		if fi, pi := b.fresh.Instructions(), b.pool.Instructions(); fi != pi {
			t.Errorf("%s bus instructions: fresh %d, pooled-reset %d", b.name, fi, pi)
		}
		if fb, pb := b.fresh.Bytes(), b.pool.Bytes(); fb != pb {
			t.Errorf("%s bus bytes: fresh %d, pooled-reset %d", b.name, fb, pb)
		}
	}

	counterValue := func(s metrics.Snapshot, name string) (uint64, bool) {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value, true
			}
		}
		return 0, false
	}
	sf, sr := regFresh.Snapshot(), regReset.Snapshot()
	for _, name := range []string{
		"master.bus.logical.instr", "master.bus.logical.bytes",
		"master.bus.sync.instr", "master.bus.sync.bytes",
		"master.bus.cache.instr", "master.bus.cache.bytes",
		"master.bus.syndrome.records", "master.bus.syndrome.bytes",
	} {
		fv, fok := counterValue(sf, name)
		rv, rok := counterValue(sr, name)
		if fok != rok {
			t.Errorf("bridged counter %s: present fresh=%v reset=%v", name, fok, rok)
			continue
		}
		if fv != rv {
			t.Errorf("bridged counter %s: fresh %d, pooled-reset %d", name, fv, rv)
		}
	}
}
