package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CanonicalSort orders events by every field — (Proc, Tid, Ts, Dur, Ph,
// Name, ArgKey, Arg) — a total order up to exact duplicates. Two tracers
// holding the same event *multiset* (e.g. per-worker shards merged in any
// order) therefore serialize byte-identically after CanonicalSort, which is
// the determinism contract mc.Run relies on. It also guarantees the
// exported ts sequence is non-decreasing within every (pid, tid) track.
func CanonicalSort(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		if a.Ph != b.Ph {
			return a.Ph < b.Ph
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.ArgKey != b.ArgKey {
			return a.ArgKey < b.ArgKey
		}
		return a.Arg < b.Arg
	})
}

// WriteJSON serializes the trace as Chrome trace-event JSON ("JSON object
// format"), loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// One simulated cycle maps to one microsecond of trace time. Each component
// class becomes a process (pid) with its name in a process_name metadata
// record; each instance becomes a thread (tid) within it. Events are
// canonically sorted, so the output is a deterministic function of the
// recorded event multiset.
func (t *Tracer) WriteJSON(w io.Writer) error {
	evs := t.Events()
	CanonicalSort(evs)

	// Deterministic pid assignment: sorted unique procs, 1-based.
	pid := make(map[string]int)
	var procs []string
	for _, ev := range evs {
		if _, ok := pid[ev.Proc]; !ok {
			pid[ev.Proc] = 0
			procs = append(procs, ev.Proc)
		}
	}
	sort.Strings(procs)
	for i, p := range procs {
		pid[p] = i + 1
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	// Metadata: name every process and thread so Perfetto's track labels read
	// "mce · tile 0" instead of bare numbers.
	type track struct {
		proc string
		tid  int
	}
	seen := map[track]bool{}
	for _, p := range procs {
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
			pid[p], jsonString(p)))
	}
	for _, ev := range evs {
		k := track{ev.Proc, ev.Tid}
		if seen[k] {
			continue
		}
		seen[k] = true
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			pid[ev.Proc], ev.Tid, jsonString(fmt.Sprintf("%s %d", ev.Proc, ev.Tid))))
	}
	for _, ev := range evs {
		args := ""
		if ev.ArgKey != "" {
			args = fmt.Sprintf(`,"args":{%s:%d}`, jsonString(ev.ArgKey), ev.Arg)
		}
		switch ev.Ph {
		case PhaseSpan:
			emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s,"cat":%s%s}`,
				pid[ev.Proc], ev.Tid, ev.Ts, ev.Dur, jsonString(ev.Name), jsonString(ev.Proc), args))
		default:
			emit(fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"ts":%d,"s":"t","name":%s,"cat":%s%s}`,
				pid[ev.Proc], ev.Tid, ev.Ts, jsonString(ev.Name), jsonString(ev.Proc), args))
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// jsonString quotes s as a JSON string. strconv.Quote is not a substitute:
// its \x and \a escapes for control bytes and invalid UTF-8 are not JSON.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}

// TrackSummary is one track's digest in Summarize.
type TrackSummary struct {
	Proc string
	Tid  int
	// Spans and Instants count events by phase.
	Spans, Instants int
	// Busy/Stall/Idle are summed span durations (cycles) classified by span
	// name: "stall*" counts as stall, "idle*" as idle, everything else busy.
	Busy, Stall, Idle int64
	// First and Last bound the track's activity: [min ts, max ts+dur].
	First, Last int64
}

// Classify returns the busy/stall/idle bucket a span name falls into.
func Classify(name string) string {
	switch {
	case hasPrefix(name, "stall"):
		return "stall"
	case hasPrefix(name, "idle"):
		return "idle"
	default:
		return "busy"
	}
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Summaries computes per-track digests, sorted by (Proc, Tid).
func (t *Tracer) Summaries() []TrackSummary {
	evs := t.Events()
	CanonicalSort(evs)
	var out []TrackSummary
	for _, ev := range evs {
		n := len(out)
		if n == 0 || out[n-1].Proc != ev.Proc || out[n-1].Tid != ev.Tid {
			out = append(out, TrackSummary{Proc: ev.Proc, Tid: ev.Tid, First: ev.Ts, Last: ev.Ts + ev.Dur})
			n++
		}
		s := &out[n-1]
		if ev.Ts < s.First {
			s.First = ev.Ts
		}
		if end := ev.Ts + ev.Dur; end > s.Last {
			s.Last = end
		}
		if ev.Ph == PhaseSpan {
			s.Spans++
			switch Classify(ev.Name) {
			case "stall":
				s.Stall += ev.Dur
			case "idle":
				s.Idle += ev.Dur
			default:
				s.Busy += ev.Dur
			}
		} else {
			s.Instants++
		}
	}
	return out
}

// Summarize renders the per-track busy/stall/idle breakdown as aligned text:
// the at-a-glance answer to "where did the cycles go" that the JSON trace
// answers in full detail.
func (t *Tracer) Summarize(w io.Writer) error {
	sums := t.Summaries()
	if _, err := fmt.Fprintf(w, "%-14s %8s %8s %9s %9s %9s %7s  %s\n",
		"track", "spans", "events", "busy", "stall", "idle", "busy%", "cycles"); err != nil {
		return err
	}
	for _, s := range sums {
		total := s.Busy + s.Stall + s.Idle
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.Busy) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "%-14s %8d %8d %9d %9d %9d %6.1f%%  [%d,%d)\n",
			fmt.Sprintf("%s/%d", s.Proc, s.Tid), s.Spans, s.Spans+s.Instants,
			s.Busy, s.Stall, s.Idle, pct, s.First, s.Last); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "dropped %d event(s): ring capacity %d exceeded (raise -trace-buf)\n",
			d, t.Capacity()); err != nil {
			return err
		}
	}
	return nil
}
