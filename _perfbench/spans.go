package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// layer harness. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name       string
	ID, Parent int32 // Parent is -1 for a root span
	Trial      int32 // shared by every span of one trial; -1 outside trials
	Start, End int64
}

// recorder keeps spans in memory until the run ends. begin/end nest: a span
// begun while another is open becomes its child.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
	trial int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), trial: -1} }

func (r *recorder) begin(name string) int32 {
	id := int32(len(r.spans))
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Trial: r.trial,
		Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its children. Children may overlap each other or stick out of
// the parent; only the union of their intervals clipped to the parent
// counts, so self time is never negative or double-subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name     string
	Count    int
	TotalNs  int64
	SelfNs   int64
	P50, P99 float64 // duration percentiles, ns
}

func spanStats(spans []span) []spanStat {
	self := selfTimes(spans)
	byName := map[string]*spanStat{}
	durs := map[string][]float64{}
	var names []string
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += self[i]
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		st := byName[n]
		st.P50, st.P99 = quantile(durs[n], 0.50), quantile(durs[n], 0.99)
		out = append(out, *st)
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(q*float64(len(s))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	return s[min(k, len(s)-1)]
}

// writeSpans writes one tab-separated line per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttrial\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Trial, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
