package bwprofile

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"quest/internal/jsonl"
)

// scriptProfile records one bus observation per leading byte of script (at
// most 64; replay observations carry no bytes, as on the machine) and
// returns the recorder and its quest-bw/1 artifact.
func scriptProfile(tb testing.TB, script []byte) (*Recorder, []byte) {
	tb.Helper()
	r := New(1 + len(script)%8)
	cycle := 0
	for _, b := range script[:min(len(script), 64)] {
		cycle += int(b % 16)
		bus := Bus(b % uint8(NumBuses))
		n := uint64(b)
		if bus == BusReplay {
			n = 0
		}
		r.Observe(cycle, bus, Class(b%uint8(NumClasses)), uint64(b%7), n)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, "fuzz", map[string]string{"design": string(script[:min(len(script), 16)])}); err != nil {
		tb.Fatal(err)
	}
	return r, buf.Bytes()
}

// FuzzBWParse runs ParseStream and Validate over arbitrary bytes: neither
// may panic, and JSON damage surfaces only as ErrCorrupt. The same bytes
// then script a recorder, whose artifact must parse back to one record per
// window and validate to the recorder's own summary.
func FuzzBWParse(f *testing.F) {
	for _, script := range []string{"", "a", "\x00\x13\x27\x3b", "profile!"} {
		_, data := scriptProfile(f, []byte(script))
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, perr := ParseStream(data)
		_, verr := Validate(data)
		for _, err := range []error{perr, verr} {
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if (errors.As(err, &syntax) || errors.As(err, &typ)) && !errors.Is(err, jsonl.ErrCorrupt) {
				t.Errorf("JSON damage surfaced as a finding: %v", err)
			}
		}
		if perr == nil && errors.Is(verr, jsonl.ErrCorrupt) {
			t.Errorf("ParseStream accepted bytes Validate calls corrupt: %v", verr)
		}

		r, written := scriptProfile(t, data)
		st, err := ParseStream(written)
		if err != nil {
			t.Fatalf("ParseStream rejected writer output: %v\n%s", err, written)
		}
		want := r.Summary()
		if len(st.Windows) != want.Windows || !st.HasSummary {
			t.Fatalf("parsed %d window(s), summary %v; want %d and a summary", len(st.Windows), st.HasSummary, want.Windows)
		}
		rep, err := Validate(written)
		if err != nil {
			t.Fatalf("Validate rejected writer output: %v\n%s", err, written)
		}
		if !reflect.DeepEqual(rep.Summary, want) {
			t.Fatalf("validated summary %+v, want the recorder's %+v", rep.Summary, want)
		}
	})
}
