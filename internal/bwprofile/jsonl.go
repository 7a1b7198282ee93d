package bwprofile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"quest/internal/jsonl"
)

// Record kinds, carried in every quest-bw/1 line's "record" field.
const (
	KindHeader  = jsonl.KindHeader
	KindWindow  = "window"
	KindSummary = "summary"
)

// Header is the first line of a quest-bw/1 file: schema plus run provenance.
// Like the ledger header — and unlike the events header — it deliberately
// carries no wall-clock, PID, or worker-count fields: the same run at any
// worker count must produce byte-identical profiles (CI's bw-smoke cmp).
type Header struct {
	Record       string            `json:"record"`
	Schema       string            `json:"schema"`
	Experiment   string            `json:"experiment"`
	GoVersion    string            `json:"go_version"`
	GOOS         string            `json:"goos"`
	GOARCH       string            `json:"goarch"`
	Host         string            `json:"host"`
	WindowCycles int               `json:"window_cycles"`
	Config       map[string]string `json:"config,omitempty"`
}

// WindowRecord is one N-cycle window's per-bus traffic. Windows are emitted
// contiguously from index 0, quiet windows included, so the records *are*
// the waveform. TotalBytes sums the four global buses; replay instructions
// never cross a wire and so contribute no byte field.
type WindowRecord struct {
	Record         string `json:"record"`
	Index          int    `json:"index"`
	LogicalInstrs  uint64 `json:"logical_instrs,omitempty"`
	LogicalBytes   uint64 `json:"logical_bytes,omitempty"`
	SyncInstrs     uint64 `json:"sync_instrs,omitempty"`
	SyncBytes      uint64 `json:"sync_bytes,omitempty"`
	CacheInstrs    uint64 `json:"cache_instrs,omitempty"`
	CacheBytes     uint64 `json:"cache_bytes,omitempty"`
	SyndromeInstrs uint64 `json:"syndrome_instrs,omitempty"`
	SyndromeBytes  uint64 `json:"syndrome_bytes,omitempty"`
	ReplayInstrs   uint64 `json:"replay_instrs,omitempty"`
	TotalBytes     uint64 `json:"total_bytes"`
}

// busBytes returns the record's per-bus byte counts in Bus order.
func (w WindowRecord) busBytes() [NumBuses]uint64 {
	return [NumBuses]uint64{w.LogicalBytes, w.SyncBytes, w.CacheBytes, w.SyndromeBytes, 0}
}

// busInstrs returns the record's per-bus instruction counts in Bus order.
func (w WindowRecord) busInstrs() [NumBuses]uint64 {
	return [NumBuses]uint64{w.LogicalInstrs, w.SyncInstrs, w.CacheInstrs, w.SyndromeInstrs, w.ReplayInstrs}
}

// SummaryRecord is the final line: the Summary reduction stamped with its
// record kind.
type SummaryRecord struct {
	Record string `json:"record"`
	Summary
}

// WriteJSONL writes the complete quest-bw/1 artifact: provenance header,
// one record per window (contiguous from 0), and the summary reduction.
// Everything is marshalled with encoding/json (map keys sorted), so the
// bytes are a pure function of the recorded traffic and provenance.
func (r *Recorder) WriteJSONL(w io.Writer, experiment string, config map[string]string) error {
	if r == nil {
		return fmt.Errorf("bwprofile: WriteJSONL on a nil recorder")
	}
	host, _ := os.Hostname()
	h := Header{
		Record:       KindHeader,
		Schema:       Schema,
		Experiment:   experiment,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Host:         host,
		WindowCycles: r.WindowCycles(),
		Config:       config,
	}
	enc := json.NewEncoder(w) // one record per line, one Write each
	if err := writeLine(enc, h); err != nil {
		return err
	}
	r.mu.Lock()
	wins := append([]winAcc(nil), r.wins...)
	r.mu.Unlock()
	for i := range wins {
		rec := WindowRecord{
			Record:         KindWindow,
			Index:          i,
			LogicalInstrs:  wins[i].instr[BusLogical],
			LogicalBytes:   wins[i].bytes[BusLogical],
			SyncInstrs:     wins[i].instr[BusSync],
			SyncBytes:      wins[i].bytes[BusSync],
			CacheInstrs:    wins[i].instr[BusCache],
			CacheBytes:     wins[i].bytes[BusCache],
			SyndromeInstrs: wins[i].instr[BusSyndrome],
			SyndromeBytes:  wins[i].bytes[BusSyndrome],
			ReplayInstrs:   wins[i].instr[BusReplay],
			TotalBytes:     wins[i].total(),
		}
		if err := writeLine(enc, rec); err != nil {
			return err
		}
	}
	return writeLine(enc, SummaryRecord{Record: KindSummary, Summary: r.Summary()})
}

func writeLine(enc *json.Encoder, v any) error {
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("bwprofile: %w", err)
	}
	return nil
}

// Stream is a parsed quest-bw/1 file.
type Stream struct {
	Header  Header
	Windows []WindowRecord
	Summary SummaryRecord
	// HasSummary reports whether the summary line was present — a file
	// without one is truncated.
	HasSummary bool
}

// format is the quest-bw/1 line layout. Unlike the live event stream there
// is no torn-line tolerance: the profile is written once at run end, so a
// malformed line is corruption, not a mid-write tail.
var format = jsonl.Format{Name: "bwprofile", Schema: Schema, SkipBlank: true}

// ParseStream decodes a quest-bw/1 JSONL file: one header line first (with
// the right schema), then window lines, then exactly one summary line.
func ParseStream(data []byte) (Stream, error) {
	var st Stream
	_, err := format.Read(data, func(l jsonl.Line) error {
		switch l.Kind {
		case KindHeader:
			return l.Decode(&st.Header)
		case KindWindow:
			if st.HasSummary {
				return l.Errorf("window after summary")
			}
			var w WindowRecord
			if err := l.Decode(&w); err != nil {
				return err
			}
			st.Windows = append(st.Windows, w)
			return nil
		case KindSummary:
			if st.HasSummary {
				return l.Errorf("duplicate summary")
			}
			st.HasSummary = true
			return l.Decode(&st.Summary)
		}
		return l.Errorf("unknown record kind %q", l.Kind)
	})
	return st, err
}

// ValidateReport summarizes a validated quest-bw/1 file for tools/bwreport.
type ValidateReport struct {
	Experiment string
	// Design is the µcode design from the header config ("" when the run
	// was not design-labelled) — the comparison key bwreport tables use.
	Design  string
	Summary Summary
}

// Validate parses and checks a quest-bw/1 file: correct schema, one header
// first, windows contiguous from index 0 with self-consistent byte totals,
// and a summary whose every statistic reproduces from the window records —
// recomputed through the same summarize code path the writer used, so even
// the float fields must match exactly. CI's bw-smoke job runs it (via
// bwreport -check) over freshly profiled runs.
func Validate(data []byte) (ValidateReport, error) {
	var rep ValidateReport
	st, err := ParseStream(data)
	if err != nil {
		return rep, err
	}
	if st.Header.Experiment == "" {
		return rep, fmt.Errorf("bwprofile: header missing experiment name")
	}
	if st.Header.WindowCycles < 1 {
		return rep, fmt.Errorf("bwprofile: header window_cycles %d, want >= 1", st.Header.WindowCycles)
	}
	if !st.HasSummary {
		return rep, fmt.Errorf("bwprofile: missing summary record — file is truncated")
	}
	byteTotals := make([]uint64, len(st.Windows))
	var instrs uint64
	var classBytes, classInstrs uint64
	for i, w := range st.Windows {
		if w.Index != i {
			return rep, fmt.Errorf("bwprofile: window %d has index %d — windows must be contiguous from 0", i, w.Index)
		}
		var sum uint64
		for _, b := range w.busBytes() {
			sum += b
		}
		if sum != w.TotalBytes {
			return rep, fmt.Errorf("bwprofile: window %d total_bytes %d, but buses sum to %d", i, w.TotalBytes, sum)
		}
		byteTotals[i] = w.TotalBytes
		for _, n := range w.busInstrs() {
			instrs += n
		}
	}
	s := st.Summary.Summary
	want := summarize(st.Header.WindowCycles, s.Cycles, instrs, byteTotals)
	if s.WindowCycles != want.WindowCycles || s.Windows != want.Windows ||
		s.TotalInstrs != want.TotalInstrs || s.TotalBytes != want.TotalBytes ||
		s.PeakWindow != want.PeakWindow || s.PeakBytes != want.PeakBytes ||
		s.SustainedBytes != want.SustainedBytes || s.P50Bytes != want.P50Bytes ||
		s.P99Bytes != want.P99Bytes || s.Burstiness != want.Burstiness {
		return rep, fmt.Errorf("bwprofile: summary does not reproduce from the window records:\n  file:       %+v\n  recomputed: %+v", withoutClasses(s), withoutClasses(want))
	}
	if s.Cycles < 0 || (s.Windows == 0 && s.Cycles != 0) ||
		(s.Windows > 0 && (s.Cycles < (s.Windows-1)*s.WindowCycles+1 || s.Cycles > s.Windows*s.WindowCycles)) {
		return rep, fmt.Errorf("bwprofile: summary cycles %d inconsistent with %d window(s) of %d cycle(s)", s.Cycles, s.Windows, s.WindowCycles)
	}
	for name, ct := range s.Classes { //quest:allow(detrange) accumulation over a set is order-independent
		if !knownClass(name) {
			return rep, fmt.Errorf("bwprofile: summary names unknown class %q", name)
		}
		classInstrs += ct.Instrs
		classBytes += ct.Bytes
	}
	if classInstrs != s.TotalInstrs || classBytes != s.TotalBytes {
		return rep, fmt.Errorf("bwprofile: class totals (%d instrs, %d bytes) do not sum to the run totals (%d instrs, %d bytes)",
			classInstrs, classBytes, s.TotalInstrs, s.TotalBytes)
	}
	rep.Experiment = st.Header.Experiment
	rep.Design = st.Header.Config["design"]
	rep.Summary = s
	return rep, nil
}

// withoutClasses strips the class map so mismatch diagnostics stay on one
// comparable line per side.
func withoutClasses(s Summary) Summary {
	s.Classes = nil
	return s
}

func knownClass(name string) bool {
	for _, n := range classNames {
		if n == name {
			return true
		}
	}
	return false
}
