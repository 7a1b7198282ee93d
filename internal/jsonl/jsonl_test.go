package jsonl

import (
	"errors"
	"strings"
	"testing"
)

const header = `{"record":"header","schema":"test/1"}`

// TestReadSkeleton pins the shared reader rules every stream inherits: the
// header first and once with the right schema, blank-line and torn-tail
// handling per Format, and the ErrCorrupt-versus-finding split.
func TestReadSkeleton(t *testing.T) {
	long := header + "\n" + `{"record":"x","pad":"` + strings.Repeat("p", maxLine) + `"}` + "\n"
	cases := []struct {
		name    string
		f       Format
		data    string
		kinds   string // record kinds handed to the callback, comma-joined
		torn    bool
		wantErr string // "" = accepted
		corrupt bool
	}{
		{name: "header and records", data: header + "\n" + `{"record":"x"}` + "\n", kinds: "header,x"},
		{name: "empty", data: "", wantErr: "file is empty"},
		{name: "named stream", f: Format{Name: "s"}, data: "", wantErr: "s: file is empty"},
		{name: "record before header", data: `{"record":"x"}`, wantErr: `line 1: first record "x" comes before header`},
		{name: "duplicate header", data: header + "\n" + header, wantErr: "line 2: duplicate header"},
		{name: "foreign schema", data: `{"record":"header","schema":"test/2"}`, wantErr: `schema "test/2", want "test/1"`},
		{name: "schema of the wrong type", data: `{"record":"header","schema":2}`, wantErr: "line 1", corrupt: true},
		{name: "kind of the wrong type", data: header + "\n" + `{"record":7}` + "\n" + `{"record":"x"}`, wantErr: "line 2", corrupt: true},
		{name: "blank line is a finding", data: header + "\n\n" + `{"record":"x"}`, wantErr: "line 2: empty line"},
		{name: "blank lines skipped", f: Format{SkipBlank: true}, data: "\n" + header + "\n \n" + `{"record":"x"}` + "\n\n", kinds: "header,x"},
		{name: "torn tail is corrupt by default", data: header + "\n" + `{"rec`, wantErr: "line 2", corrupt: true},
		{name: "torn tail dropped", f: Format{Torn: true}, data: header + "\n" + `{"record":"x"}` + "\n" + `{"rec`, kinds: "header,x", torn: true},
		{name: "blank tail dropped", f: Format{Torn: true}, data: header + "\n\n", kinds: "header", torn: true},
		{name: "torn header is corrupt", f: Format{Torn: true}, data: `{"record":"hea`, wantErr: "line 1", corrupt: true},
		{name: "garbled middle line is corrupt", f: Format{Torn: true}, data: header + "\n{torn\n" + `{"record":"x"}`, wantErr: "line 2", corrupt: true},
		{name: "over-long line is corrupt", f: Format{Torn: true}, data: long, corrupt: true, wantErr: "too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.f.Schema = "test/1"
			var kinds []string
			torn, err := tc.f.Read([]byte(tc.data), func(l Line) error {
				kinds = append(kinds, l.Kind)
				return nil
			})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Read: %v", err)
				}
				if got := strings.Join(kinds, ","); got != tc.kinds || torn != tc.torn {
					t.Errorf("kinds %q torn %v, want %q torn %v", got, torn, tc.kinds, tc.torn)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Read = %v, want an error mentioning %q", err, tc.wantErr)
			}
			if errors.Is(err, ErrCorrupt) != tc.corrupt {
				t.Errorf("errors.Is(%v, ErrCorrupt) = %v, want %v", err, !tc.corrupt, tc.corrupt)
			}
		})
	}
}

// TestReadCallbackErrorsPassThrough pins that the callback's own errors —
// the stream packages' findings and typed-decode failures — return
// unchanged and stop the scan.
func TestReadCallbackErrorsPassThrough(t *testing.T) {
	f := Format{Name: "s", Schema: "test/1"}
	data := []byte(header + "\n" + `{"record":"x","n":"one"}` + "\n" + `{"record":"y"}`)
	var seen int
	_, err := f.Read(data, func(l Line) error {
		seen++
		if l.Kind != "x" {
			return nil
		}
		var v struct {
			N int `json:"n"`
		}
		return l.Decode(&v)
	})
	if seen != 2 || err == nil || !errors.Is(err, ErrCorrupt) || !strings.HasPrefix(err.Error(), "s: line 2: ") {
		t.Errorf("Read = %v after %d record(s), want a corrupt line-2 error after 2", err, seen)
	}
	finding := errors.New("finding")
	if _, err := f.Read(data, func(l Line) error { return finding }); !errors.Is(err, finding) {
		t.Errorf("Read = %v, want the callback's error", err)
	}
}
