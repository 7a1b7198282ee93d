package ledger

import (
	"bytes"
	"strings"
	"testing"
)

// resumeFixture builds a well-formed unsampled ledger with three cells of 3
// trials each and returns its lines (no trailing empty element).
func resumeFixture(t *testing.T) [][]byte {
	t.Helper()
	full, _ := shardSet(t, 1, []int{3, 3, 3})
	return bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
}

func joinLines(lines [][]byte) []byte {
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

// TestResumeFullLedger pins that a complete ledger parses into all-complete
// cells, each replayable exactly once.
func TestResumeFullLedger(t *testing.T) {
	lines := resumeFixture(t)
	r, err := NewResume(joinLines(lines))
	if err != nil {
		t.Fatalf("NewResume: %v", err)
	}
	if c, p := r.Counts(); c != 3 || p != 0 {
		t.Fatalf("Counts = (%d, %d), want (3, 0)", c, p)
	}
	if r.Truncated() {
		t.Error("complete ledger reported a torn final line")
	}
	cc, partial, err := r.Take("cell-1")
	if err != nil || cc == nil || partial != nil {
		t.Fatalf("Take(cell-1) = (%v, %v, %v), want a completed cell", cc, partial, err)
	}
	if cc.Summary.Trials != 3 || len(cc.Trials) != 3 {
		t.Errorf("cell-1 carries %d trials, summary says %d, want 3/3", len(cc.Trials), cc.Summary.Trials)
	}
	if _, _, err := r.Take("cell-1"); err == nil {
		t.Error("double Take of the same cell did not error")
	}
	if left := r.Unconsumed(); len(left) != 2 || left[0] != "cell-0" || left[1] != "cell-2" {
		t.Errorf("Unconsumed = %q, want [cell-0 cell-2]", left)
	}
}

// TestResumePartialCell pins the crash-mid-cell case: a ledger cut after
// some of a cell's trial records yields that cell as partial, with exactly
// the recorded leading trials.
func TestResumePartialCell(t *testing.T) {
	lines := resumeFixture(t)
	// Lines: header, then 4 lines per cell (3 trials + summary). Cut after
	// cell-1's second trial record: 1 + 4 + 2 = 7 lines.
	r, err := NewResume(joinLines(lines[:7]))
	if err != nil {
		t.Fatalf("NewResume: %v", err)
	}
	if c, p := r.Counts(); c != 1 || p != 1 {
		t.Fatalf("Counts = (%d, %d), want (1, 1)", c, p)
	}
	cc, partial, err := r.Take("cell-1")
	if err != nil || cc != nil {
		t.Fatalf("Take(cell-1) = (%v, _, %v), want partial trials only", cc, err)
	}
	if len(partial) != 2 || partial[0].Trial != 0 || partial[1].Trial != 1 {
		t.Errorf("partial trials = %+v, want indices 0,1", partial)
	}
	// An unrecorded cell yields neither: run it from scratch.
	cc, partial, err = r.Take("cell-2")
	if err != nil || cc != nil || partial != nil {
		t.Errorf("Take(cell-2) = (%v, %v, %v), want (nil, nil, nil)", cc, partial, err)
	}
}

// TestResumeTornFinalLine pins crash-tolerance: a garbled last line (the
// write the crash interrupted) is dropped and flagged, anywhere else it is
// an error.
func TestResumeTornFinalLine(t *testing.T) {
	lines := resumeFixture(t)
	torn := append(joinLines(lines[:6]), []byte(`{"record":"trial","cell":"cell-1","tri`)...)
	r, err := NewResume(torn)
	if err != nil {
		t.Fatalf("NewResume: %v", err)
	}
	if !r.Truncated() {
		t.Error("torn final line not reported")
	}
	if _, partial, _ := r.Take("cell-1"); len(partial) != 1 {
		t.Errorf("cell-1 has %d prior trial(s), want 1 (the torn record dropped)", len(partial))
	}

	garbledMiddle := append([]byte(`{torn}`+"\n"), joinLines(lines[1:])...)
	garbledMiddle = append(joinLines(lines[:1]), garbledMiddle...)
	if _, err := NewResume(garbledMiddle); err == nil {
		t.Error("garbled middle line accepted")
	}
}

// TestResumeRejects pins the malformed checkpoints NewResume must refuse:
// no usable header, sampled or out-of-order trials, count mismatches,
// reappearing cells.
func TestResumeRejects(t *testing.T) {
	lines := resumeFixture(t)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty file", nil, "empty"},
		{"torn header", []byte(`{"record":"hea`), "line 1"},
		{"no header", joinLines(lines[1:]), "first record"},
		{"gap in trial indices", joinLines([][]byte{lines[0], lines[1], lines[3]}), "want 1"},
		{"summary count mismatch", joinLines([][]byte{lines[0], lines[1], lines[4]}), "summarizes 3"},
		{"cell recorded twice", joinLines(append(append([][]byte{}, lines...), lines[1], lines[2], lines[3], lines[4])), "after its summary"},
		// Only a line that is not JSON can come from a torn write; a complete
		// final line that says something wrong is refused like any other.
		{"unknown kind as final line", joinLines(append(append([][]byte{}, lines[:5]...), []byte(`{"record":"mystery"}`))), "unknown record kind"},
		{"mistyped final line", joinLines(append(append([][]byte{}, lines[:5]...), []byte(`{"record":"trial","cell":"cell-1","trial":"0"}`))), "cannot unmarshal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewResume(tc.data)
			if err == nil {
				t.Fatal("malformed checkpoint accepted")
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
