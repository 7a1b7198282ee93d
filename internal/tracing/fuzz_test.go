package tracing

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// scriptTrace records one event per 4-byte group of script (at most 64)
// and returns the tracer's WriteJSON output with the number of events and
// of distinct components and tracks recorded. It is the writer half of
// FuzzTraceValidate. The group picks the phase, the instance, the cycle
// and the duration; component, event and argument names are slices of
// script, so they carry arbitrary bytes. Cycles and durations are
// non-negative and names non-empty, as at every recording site.
func scriptTrace(tb testing.TB, script []byte) (data []byte, events, procs, tracks int) {
	tb.Helper()
	tr := New(64)
	type track struct {
		proc string
		tid  int
	}
	seenProc, seenTrack := map[string]bool{}, map[track]bool{}
	for i := 0; i+4 <= len(script) && events < 64; i += 4 {
		g := script[i : i+4]
		proc := string(g[:1+g[1]%3])
		name := string(g[2 : 3+g[3]%2])
		tid := int(int8(g[1])) % 4
		cycle, dur := int64(g[2])*int64(g[3]), int64(g[0]>>4)
		switch g[0] % 4 {
		case 0:
			tr.Span(proc, tid, name, cycle, dur)
		case 1:
			tr.SpanArg(proc, tid, name, cycle, dur, string(g[3:]), int64(int8(g[1])))
		case 2:
			tr.Instant(proc, tid, name, cycle)
		case 3:
			tr.InstantArg(proc, tid, name, cycle, string(g[1:2]), int64(int8(g[2])))
		}
		events++
		seenProc[proc] = true
		seenTrack[track{proc, tid}] = true
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), events, len(seenProc), len(seenTrack)
}

// FuzzTraceValidate feeds Validate arbitrary bytes and the output of a
// scripted tracer. Validate must never panic, every report it accepts must
// be self-consistent, and it must accept every non-empty trace the writer
// produces with the writer's event, component and track counts.
func FuzzTraceValidate(f *testing.F) {
	for _, script := range []string{"", "\x00mce\x01\x02\x03", "\x13\xff\x80\x7f\"\\\n\a"} {
		data, _, _, _ := scriptTrace(f, []byte(script))
		f.Add([]byte(script))
		f.Add(data)
	}
	questsim, err := os.ReadFile(filepath.Join("testdata", "questsim-distill.trace.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(questsim)

	f.Fuzz(func(t *testing.T, data []byte) {
		if rep, err := Validate(data); err == nil &&
			(rep.Events < 1 || rep.Tracks < 1 || rep.Tracks > rep.Events || rep.Procs > rep.Tracks) {
			t.Fatalf("accepted an inconsistent report %+v", rep)
		}
		trace, events, procs, tracks := scriptTrace(t, data)
		rep, err := Validate(trace)
		if events == 0 {
			if err == nil {
				t.Fatal("accepted a trace with no events")
			}
			return
		}
		if err != nil {
			t.Fatalf("writer output rejected: %v\n%s", err, trace)
		}
		if rep.Events != events || rep.Procs != procs || rep.Tracks != tracks {
			t.Fatalf("report %+v, want %d events, %d procs, %d tracks", rep, events, procs, tracks)
		}
	})
}
