package events

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"quest/internal/jsonl"
)

// scriptEvents writes a quest-events/1 stream whose snapshots come from
// script: one snapshot per leading byte (at most 8), each carrying one cell
// and one bus with monotone, self-consistent counters. It returns the bytes
// and the Stream they must parse back to.
func scriptEvents(tb testing.TB, script []byte) ([]byte, Stream) {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, nil)
	want := Stream{Header: Header{
		Record: KindHeader, Schema: Schema, Experiment: "fuzz", GoVersion: "go", Host: "h", PID: 1,
		StartMs: 7, Config: map[string]string{"script": fmt.Sprintf("%q", script[:min(len(script), 64)])},
	}}
	if err := w.WriteHeader(want.Header); err != nil {
		tb.Fatal(err)
	}
	var ms int64
	var busBytes uint64
	for i, b := range script[:min(len(script), 8)] {
		ms += int64(b)
		busBytes += uint64(b)
		s := Snapshot{
			Record: KindSnapshot, Seq: i + 1, Ms: ms,
			Cells: []CellProgress{{
				Cell: fmt.Sprintf("c%d", b%3), Completed: int(b), Budget: 255, Failures: int(b) / 3,
				WilsonLo: 0, WilsonHi: 1, RatePerSec: float64(b), EtaMs: int64(b) * 10, Done: b%2 == 1,
			}},
			BW:      []BusRate{{Bus: "logical", Instrs: busBytes / 2, Bytes: busBytes, RatePerSec: float64(b) / 4}},
			Runtime: RuntimeStats{HeapBytes: uint64(b) << 10, Goroutines: int(b), NumGC: uint32(i)},
		}
		if err := w.WriteSnapshot(s); err != nil {
			tb.Fatal(err)
		}
		want.Snapshots = append(want.Snapshots, s)
	}
	return buf.Bytes(), want
}

// FuzzEventsParse runs ParseStream, Validate and ValidateTail over arbitrary
// bytes: none may panic, and JSON damage surfaces only as ErrCorrupt. The
// same bytes then script a writer run, whose output must parse back to
// exactly what was written and validate — also with a torn final line
// appended, which a live tail tolerates.
func FuzzEventsParse(f *testing.F) {
	for _, script := range []string{"", "a", "\x00\x05\xff", "events!!"} {
		data, _ := scriptEvents(f, []byte(script))
		f.Add(data)
		f.Add(append(append([]byte{}, data...), `{"record":"snaps`...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, perr := ParseStream(data)
		_, verr := Validate(data)
		_, terr := ValidateTail(data)
		for _, err := range []error{perr, verr, terr} {
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if (errors.As(err, &syntax) || errors.As(err, &typ)) && !errors.Is(err, jsonl.ErrCorrupt) {
				t.Errorf("JSON damage surfaced as a finding: %v", err)
			}
		}
		if perr == nil && (errors.Is(verr, jsonl.ErrCorrupt) || errors.Is(terr, jsonl.ErrCorrupt)) {
			t.Errorf("ParseStream accepted bytes Validate calls corrupt: %v / %v", verr, terr)
		}

		written, want := scriptEvents(t, data)
		for _, in := range [][]byte{written, append(written, `{"record":"snaps`...)} {
			st, err := ParseStream(in)
			if err != nil {
				t.Fatalf("ParseStream rejected writer output: %v\n%s", err, in)
			}
			if !reflect.DeepEqual(st, want) {
				t.Fatalf("ParseStream(writer output) = %+v, want %+v", st, want)
			}
			if _, err := Validate(in); err != nil {
				t.Fatalf("Validate rejected writer output: %v\n%s", err, in)
			}
		}
	})
}
