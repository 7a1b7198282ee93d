package main

import (
	"bytes"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// TestParseProfileHandBuilt covers packed and unpacked repeated fields,
// inlined frames (several lines in one location) and skipped fixed-width
// fields.
func TestParseProfileHandBuilt(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"quest/internal/clifford.(*Tableau).CNOT", "quest/internal/awg.(*ExecutionUnit).Fire", "main.main"}
	var p pb
	p = p.bytes(profSampleType, pb(nil).varint(vtType, 1).varint(vtUnit, 2))
	p = p.bytes(profSampleType, pb(nil).varint(vtType, 3).varint(vtUnit, 4))
	// Packed locations and values.
	var locs, vals pb
	locs = binary.AppendUvarint(binary.AppendUvarint(locs, 1), 2)
	vals = binary.AppendUvarint(binary.AppendUvarint(vals, 3), 30_000_000)
	p = p.bytes(profSample, pb(nil).bytes(sampleLocation, locs).bytes(sampleValue, vals))
	// Unpacked: one location, values one field each.
	p = p.bytes(profSample, pb(nil).varint(sampleLocation, 2).varint(sampleValue, 1).varint(sampleValue, 10_000_000))
	// Location 1 inlines CNOT into Fire; location 2 is main.main.
	p = p.bytes(profLocation, pb(nil).varint(locID, 1).
		bytes(locLine, pb(nil).varint(lineFunction, 10)).
		bytes(locLine, pb(nil).varint(lineFunction, 11)))
	p = p.bytes(profLocation, pb(nil).varint(locID, 2).bytes(locLine, pb(nil).varint(lineFunction, 12)))
	for id, name := range map[uint64]uint64{10: 5, 11: 6, 12: 7} {
		p = p.bytes(profFunction, pb(nil).varint(fnID, id).varint(fnName, name))
	}
	for _, s := range strs {
		p = p.bytes(profStrings, []byte(s))
	}
	p = append(p, 9<<3|1, 0, 0, 0, 0, 0, 0, 0, 0) // time_nanos as fixed64 (skipped)
	p = p.varint(profPeriod, 10_000_000)

	prof, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(prof.SampleTypes, " "); got != "samples/count cpu/nanoseconds" {
		t.Errorf("sample types %q", got)
	}
	if len(prof.Samples) != 2 || prof.PeriodNs != 10_000_000 {
		t.Fatalf("%d samples, period %d", len(prof.Samples), prof.PeriodNs)
	}
	want := "quest/internal/clifford.(*Tableau).CNOT quest/internal/awg.(*ExecutionUnit).Fire main.main"
	if got := strings.Join(prof.Samples[0].Stack, " "); got != want {
		t.Errorf("stack %q, want %q", got, want)
	}
	a := attribute(prof)
	if a.TotalNs != 40_000_000 || a.LayerNs["clifford"] != 30_000_000 || a.LayerNs["harness"] != 10_000_000 {
		t.Errorf("attribution %+v", a)
	}
	if _, err := parseProfile(p[:len(p)-1]); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"quest/internal/clifford.(*Tableau).CNOT":                  "quest/internal/clifford",
		"math/rand.(*rngSource).Seed":                              "math/rand",
		"runtime.mallocgc":                                         "runtime",
		"quest/internal/core.(*Machine).Reset.func1":               "quest/internal/core",
		"slices.SortFunc[go.shape.[]quest/internal/mce.T]":         "slices",
		"type:.eq.quest/internal/surface.Coord":                    "quest/internal/surface",
		"internal/runtime/maps.(*Map).getWithKeySmall":             "internal/runtime/maps",
		"main.harnessThreshold":                                    "main",
		"quest.NewMachine":                                         "quest",
		"quest/internal/decoder.(*GlobalDecoder).exactMatch.func2": "quest/internal/decoder",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestWorkloadPackagesMapToLayers profiles each workload's harness and
// requires every module package on any sampled stack to map to a layer, and
// the samples with no mapped frame at all to stay a small share.
func TestWorkloadPackagesMapToLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles each workload's harness for a second")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			hr, err := runHarness(w, 1, time.Now().Add(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if len(hr.errs) > 0 {
				t.Fatalf("harness errors: %v", hr.errs)
			}
			a := hr.attr
			if a.TotalNs == 0 {
				t.Fatal("empty profile")
			}
			if len(a.Unmapped) > 0 {
				t.Errorf("module packages with no layer: %v", a.Unmapped)
			}
			if s := a.share(a.UnattributedNs); s > 0.02 {
				t.Errorf("unattributed share %.3f > 0.02", s)
			}
		})
	}
}

// TestRuntimeProfileRoundTrip parses a real runtime/pprof CPU profile.
func TestRuntimeProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("cpu/nanoseconds") < 0 || len(p.Samples) == 0 {
		t.Fatalf("types %v, %d samples", p.SampleTypes, len(p.Samples))
	}
	found := false
	for _, s := range p.Samples {
		for _, fn := range s.Stack {
			found = found || fn == "quest/perfbench.spin" || fn == "main.spin"
		}
	}
	if !found {
		t.Error("no sample inside spin")
	}
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = splitmix(x)
		}
	}
	spinSink = x
}
