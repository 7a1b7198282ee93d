package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// scriptLedger writes an unsampled ledger whose cells come from script: one
// cell per leading byte (at most 8), named after the byte and its position,
// with b%5 trial records and summary counts that agree with them. It is the
// writer half of FuzzLedgerRead: every script must yield a ledger all three
// readers accept. shard stamps the header, as a -shard run's ledger.
func scriptLedger(tb testing.TB, script []byte, shard ShardInfo) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewShardWriter(&buf, "fuzz", map[string]string{"script": string(script[:min(len(script), 64)])}, 1, shard)
	if err != nil {
		tb.Fatal(err)
	}
	for i, b := range script[:min(len(script), 8)] {
		name := fmt.Sprintf("%d:%s", i, script[i:i+1])
		trials, failures := int(b%5), 0
		for k := 0; k < trials; k++ {
			fail := (int(b)>>k)&1 == 1
			if fail {
				failures++
			}
			if err := w.WriteTrial(Trial{Cell: name, Trial: k, Seed: SeedString(uint64(b)<<8 | uint64(k)), Fail: fail}); err != nil {
				tb.Fatal(err)
			}
		}
		rate := 0.0
		if trials > 0 {
			rate = float64(failures) / float64(trials)
		}
		if err := w.WriteCell(Cell{
			Cell: name, Params: map[string]float64{"b": float64(b)}, Seed: SeedString(uint64(b)),
			Budget: trials + int(b%3), Trials: trials, Failures: failures, Rate: rate, WilsonHi: 1,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// damaged reports whether some line of data does not decode as a ledger
// record: invalid JSON, or a field of the wrong type for its record kind.
// It is the independent oracle for ErrCorrupt.
func damaged(data []byte) bool {
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if len(line) >= 1<<20-1 {
			return true
		}
		var kind struct {
			Record string `json:"record"`
		}
		if json.Unmarshal(line, &kind) != nil {
			return true
		}
		var v any
		switch kind.Record {
		case KindHeader:
			v = &Header{}
		case KindTrial:
			v = &Trial{}
		case KindCell:
			v = &Cell{}
		default:
			continue
		}
		if json.Unmarshal(line, v) != nil {
			return true
		}
	}
	return false
}

// FuzzLedgerRead runs the ledger's three readers — Validate, ParseShard and
// NewResume — over the same arbitrary bytes. None may panic; JSON damage
// surfaces only as ErrCorrupt, and only when some line really is damaged;
// Validate and ParseShard (one parse, no torn-tail tolerance) agree on it.
// The same bytes then script a writer run, whose output all three accept.
func FuzzLedgerRead(f *testing.F) {
	for _, script := range []string{"", "a", "\x00\x04\x09", "shards!!"} {
		data := scriptLedger(f, []byte(script), ShardInfo{})
		f.Add(data)
		f.Add(append(append([]byte{}, data...), `{"record":"trial","cell":"0:`...))
	}
	f.Add(scriptLedger(f, []byte("\x03\x01"), ShardInfo{Index: 1, Count: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, verr := Validate(data)
		_, perr := ParseShard(data)
		_, rerr := NewResume(data)
		for _, err := range []error{verr, perr, rerr} {
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if (errors.As(err, &syntax) || errors.As(err, &typ)) && !errors.Is(err, ErrCorrupt) {
				t.Errorf("JSON damage surfaced as a finding: %v", err)
			}
			if errors.Is(err, ErrCorrupt) && !damaged(data) {
				t.Errorf("ErrCorrupt on undamaged input: %v", err)
			}
		}
		if errors.Is(verr, ErrCorrupt) != errors.Is(perr, ErrCorrupt) {
			t.Errorf("Validate and ParseShard disagree on corruption: %v vs %v", verr, perr)
		}

		written := scriptLedger(t, data, ShardInfo{})
		if _, err := Validate(written); err != nil {
			t.Fatalf("Validate rejected writer output: %v\n%s", err, written)
		}
		sh, err := ParseShard(written)
		if err != nil {
			t.Fatalf("ParseShard rejected writer output: %v\n%s", err, written)
		}
		if merged, err := Merge([]*ShardLedger{sh}); err != nil || !bytes.Equal(merged, written) {
			t.Fatalf("identity merge of writer output = (%v), bytes equal %v", err, bytes.Equal(merged, written))
		}
		r, err := NewResume(written)
		if err != nil {
			t.Fatalf("NewResume rejected writer output: %v\n%s", err, written)
		}
		if complete, partial := r.Counts(); complete != min(len(data), 8) || partial != 0 || r.Truncated() {
			t.Fatalf("NewResume(writer output) = %d complete, %d partial, torn %v; want %d, 0, false",
				complete, partial, r.Truncated(), min(len(data), 8))
		}
	})
}
