package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// tableRow is one row of questbench's threshold or memory table: physical
// rate, distance (threshold) or rounds (memory), logical failure rate, its
// 95% Wilson interval, and the trial count.
type tableRow struct {
	Rate   float64
	Param  int
	Fail   float64
	Lo, Hi float64
	Trials int
}

var rowRE = regexp.MustCompile(`^(\S+)\s+(\d+)\s+(\S+)\s+\[(\S+), (\S+)\]\s+(\d+)\s*$`)

// parseTable extracts the rows of the named experiment's table from
// questbench output ("== threshold: ... ==", header, dashes, rows, blank).
func parseTable(out, experiment string) ([]tableRow, error) {
	lines := strings.Split(out, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "== "+experiment+":") {
			start = i
			break
		}
	}
	if start < 0 || start+3 > len(lines) || !strings.HasPrefix(lines[start+2], "---") {
		return nil, fmt.Errorf("no %s table in output", experiment)
	}
	var rows []tableRow
	for _, l := range lines[start+3:] {
		if strings.TrimSpace(l) == "" {
			break
		}
		m := rowRE.FindStringSubmatch(l)
		if m == nil {
			return nil, fmt.Errorf("%s: malformed row %q", experiment, l)
		}
		var r tableRow
		var errs [6]error
		r.Rate, errs[0] = strconv.ParseFloat(m[1], 64)
		r.Param, errs[1] = strconv.Atoi(m[2])
		r.Fail, errs[2] = strconv.ParseFloat(m[3], 64)
		r.Lo, errs[3] = strconv.ParseFloat(m[4], 64)
		r.Hi, errs[4] = strconv.ParseFloat(m[5], 64)
		r.Trials, errs[5] = strconv.Atoi(m[6])
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s: row %q: %w", experiment, l, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// simReport is the simulated statistics questsim prints for a one-tile run.
// None of it is host time, so for a noiseless program it is fixed by the
// flags alone.
type simReport struct {
	Cycles, IdleCycles, LogicalRetired       int64
	BaselineBytes, QuESTBytes, SyndromeBytes int64
	Savings                                  string
	Escalated, GlobalDecodes                 int64
	MicroOps, TileLogical, CacheHits, Loads  int64
	TStalls, MicrocodeBits                   int64
	TileWallClockUs                          string
}

var simLineRE = []struct {
	re  *regexp.Regexp
	set func(r *simReport, m []string) error
}{
	{regexp.MustCompile(`^  program cycles:\s+(\d+) \(\+(\d+) idle\)$`), func(r *simReport, m []string) error {
		return ints(m[1:], &r.Cycles, &r.IdleCycles)
	}},
	{regexp.MustCompile(`^  logical retired:\s+(\d+)$`), func(r *simReport, m []string) error {
		return ints(m[1:], &r.LogicalRetired)
	}},
	{regexp.MustCompile(`^  baseline bus bytes:\s+(\d+)$`), func(r *simReport, m []string) error {
		return ints(m[1:], &r.BaselineBytes)
	}},
	{regexp.MustCompile(`^  QuEST bus bytes:\s+(\d+)$`), func(r *simReport, m []string) error {
		return ints(m[1:], &r.QuESTBytes)
	}},
	{regexp.MustCompile(`^  syndrome bytes \(up\):\s+(\d+)$`), func(r *simReport, m []string) error {
		return ints(m[1:], &r.SyndromeBytes)
	}},
	{regexp.MustCompile(`^  measured savings:\s+(\S+)$`), func(r *simReport, m []string) error {
		r.Savings = m[1]
		return nil
	}},
	{regexp.MustCompile(`^  defects escalated:\s+(\d+) \(global decodes: (\d+)\)$`), func(r *simReport, m []string) error {
		return ints(m[1:], &r.Escalated, &r.GlobalDecodes)
	}},
	{regexp.MustCompile(`^  tile 0: (\d+) µops, (\d+) logical, cache (\d+) hits/(\d+) loads, (\d+) T stalls, (\d+) µcode bits streamed$`), func(r *simReport, m []string) error {
		return ints(m[1:], &r.MicroOps, &r.TileLogical, &r.CacheHits, &r.Loads, &r.TStalls, &r.MicrocodeBits)
	}},
	{regexp.MustCompile(`^  tile 0 wall clock:\s+(\S+) µs`), func(r *simReport, m []string) error {
		r.TileWallClockUs = m[1]
		return nil
	}},
}

// parseSimReport parses questsim's report. Every statistic line must be
// present exactly once.
func parseSimReport(out string) (simReport, error) {
	var r simReport
	seen := make([]int, len(simLineRE))
	for _, l := range strings.Split(out, "\n") {
		for i, p := range simLineRE {
			if m := p.re.FindStringSubmatch(l); m != nil {
				if err := p.set(&r, m); err != nil {
					return r, fmt.Errorf("questsim line %q: %w", l, err)
				}
				seen[i]++
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			return r, fmt.Errorf("questsim report: %d lines match %q, want 1", n, simLineRE[i].re)
		}
	}
	return r, nil
}

func ints(ms []string, dst ...*int64) error {
	for i, d := range dst {
		v, err := strconv.ParseInt(ms[i], 10, 64)
		if err != nil {
			return err
		}
		*d = v
	}
	return nil
}

// metricsSnap is the registry dump a program writes with -metrics json.
type metricsSnap struct {
	Counters   []namedValue `json:"counters"`
	Gauges     []namedValue `json:"gauges"`
	Histograms []struct {
		Name    string   `json:"name"`
		Summary histSumm `json:"summary"`
	} `json:"histograms"`
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type histSumm struct {
	Count, Sum, Min, Max, Mean, P50, P95, P99 float64
}

// parseMetricsJSON extracts the -metrics json dump, which the program
// writes last on stderr (after any heatmap render or warnings), starting at
// a line holding only "{".
func parseMetricsJSON(stderr string) (metricsSnap, error) {
	var snap metricsSnap
	i := strings.LastIndex("\n"+stderr, "\n{\n")
	if i < 0 {
		return snap, fmt.Errorf("no -metrics json object on stderr")
	}
	dec := json.NewDecoder(strings.NewReader(stderr[i:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return snap, fmt.Errorf("-metrics json: %w", err)
	}
	return snap, nil
}

func (s metricsSnap) counter(name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func (s metricsSnap) gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

func (s metricsSnap) hist(name string) histSumm {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Summary
		}
	}
	return histSumm{}
}
