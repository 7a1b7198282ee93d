// Package jsonl is the reader shared by the repository's JSONL artifact
// streams: the run ledger (quest-ledger/1), the live telemetry stream
// (quest-events/1) and the bandwidth profile (quest-bw/1). All three are one
// JSON record per line, a "record" field naming each line's kind, and exactly
// one header record, carrying the schema, first. This package owns that
// skeleton; the stream packages own their record types and the checks on
// what the records say.
//
// Writers emit each record with encoding/json — an Encoder, or Marshal plus
// a newline, in one Write — so a line is the record's json.Marshal bytes:
// map keys sorted, no insignificant spaces.
//
// Readers sort failures into two classes. Bytes that do not parse as the
// stream's records — garbled or truncated JSON, a field of the wrong type, a
// line over the 1 MiB limit — wrap ErrCorrupt, and the checker tools exit 2
// on them: the check could not run. Everything else a reader rejects (no
// header, a foreign schema, a record out of place) is a plain error: the
// input was readable and what it said was wrong, a finding (exit 1).
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// KindHeader is the record kind of every stream's first line.
const KindHeader = "header"

// maxLine is the longest line a reader accepts, in bytes.
const maxLine = 1 << 20

// ErrCorrupt marks input that does not parse as a stream's records.
var ErrCorrupt = errors.New("corrupt JSONL record")

// Format describes one stream's line layout for Read.
type Format struct {
	// Name prefixes every error Read returns ("events: line 3: ..."); ""
	// for none.
	Name string
	// Schema is the value the header's "schema" field must carry.
	Schema string
	// SkipBlank ignores blank lines; otherwise a blank line is a finding.
	SkipBlank bool
	// Torn drops a final line that does not parse — the write a crash or a
	// live tail interrupted — and reports it instead of failing. A header
	// must parse first: a stream torn inside its header is no stream.
	Torn bool
}

// Line is one record line handed to Read's callback.
type Line struct {
	// No is the 1-based line number.
	No int
	// Kind is the line's "record" field.
	Kind string
	// Raw holds the line's bytes, valid only during the callback.
	Raw  []byte
	name string
}

// Decode unmarshals the line into v; a failure wraps both ErrCorrupt and
// the encoding/json error.
func (l Line) Decode(v any) error {
	if err := json.Unmarshal(l.Raw, v); err != nil {
		return l.Errorf("%w: %w", ErrCorrupt, err)
	}
	return nil
}

// Errorf builds an error about this line, prefixed with the stream name and
// line number like every error Read returns.
func (l Line) Errorf(format string, args ...any) error {
	return fmt.Errorf("%sline %d: %w", prefix(l.name), l.No, fmt.Errorf(format, args...))
}

func prefix(name string) string {
	if name == "" {
		return ""
	}
	return name + ": "
}

// Read scans data and hands every record line to fn in order, enforcing
// the shared skeleton first: the header is the first record, appears once,
// and carries f.Schema. It reports whether a torn final line was dropped
// (only when f.Torn). An error from fn stops the scan and is returned
// unchanged.
func (f Format) Read(data []byte, fn func(Line) error) (torn bool, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, maxLine)
	l := Line{name: f.Name}
	sawHeader := false
	for sc.Scan() {
		l.No++
		l.Raw = sc.Bytes()
		var probe struct {
			Record string `json:"record"`
		}
		var bad error
		if len(bytes.TrimSpace(l.Raw)) == 0 {
			if f.SkipBlank {
				continue
			}
			bad = l.Errorf("empty line")
		} else {
			bad = l.Decode(&probe)
		}
		if bad != nil {
			if f.Torn && sawHeader && !sc.Scan() && sc.Err() == nil {
				return true, nil
			}
			return false, bad
		}
		l.Kind = probe.Record
		if l.Kind == KindHeader {
			if sawHeader {
				return false, l.Errorf("duplicate header")
			}
			var h struct {
				Schema string `json:"schema"`
			}
			if err := l.Decode(&h); err != nil {
				return false, err
			}
			if h.Schema != f.Schema {
				return false, l.Errorf("schema %q, want %q", h.Schema, f.Schema)
			}
			sawHeader = true
		} else if !sawHeader {
			return false, l.Errorf("first record %q comes before header", l.Kind)
		}
		if err := fn(l); err != nil {
			return false, err
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("%s%w: %v", prefix(f.Name), ErrCorrupt, err)
	}
	if !sawHeader {
		return false, fmt.Errorf("%sfile is empty", prefix(f.Name))
	}
	return false, nil
}
