package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile (profile.proto, gzip-compressed
// protobuf as runtime/pprof writes it) that layer attribution needs: each
// sample's value and its call stack as function names, leaf first.
type profile struct {
	SampleTypes []string // "<type>/<unit>" per value index
	Samples     []sample
	PeriodNs    int64
}

type sample struct {
	Stack  []string // function names, innermost first, inlined frames expanded
	Values []int64
}

// valueIndex returns the index of the sample value of the given type/unit
// ("cpu/nanoseconds"), or -1.
func (p *profile) valueIndex(typeUnit string) int {
	for i, t := range p.SampleTypes {
		if t == typeUnit {
			return i
		}
	}
	return -1
}

// Field numbers of profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
	profPeriod     = 12

	vtType = 1
	vtUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	fnID   = 1
	fnName = 2
)

// parseProfile decodes a pprof profile, gzip-compressed or raw.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		data = raw
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs     []string
		types    [][2]uint64
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id → function ids, innermost first
		fnNames  = map[uint64]uint64{}   // function id → string index
		period   int64
	)
	err := fields(data, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleType:
			var t [2]uint64
			err := fields(msg, func(n int, v uint64, _ []byte) error {
				if n == vtType || n == vtUnit {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case profSample:
			var s rawSample
			err := fields(msg, func(n int, v uint64, packed []byte) error {
				switch n {
				case sampleLocation:
					if packed != nil {
						return varints(packed, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case sampleValue:
					if packed != nil {
						return varints(packed, func(x uint64) { s.values = append(s.values, int64(x)) })
					}
					s.values = append(s.values, int64(v))
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(msg, func(n int, v uint64, sub []byte) error {
				switch n {
				case locID:
					id = v
				case locLine:
					return fields(sub, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := fields(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case fnID:
					id = v
				case fnName:
					name = v
				}
				return nil
			})
			fnNames[id] = name
			return err
		case profStrings:
			strs = append(strs, string(msg))
		case profPeriod:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{PeriodNs: period}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, typ+"/"+unit)
	}
	for _, rs := range samples {
		if len(rs.values) != len(types) {
			return nil, fmt.Errorf("pprof: sample has %d values, want %d", len(rs.values), len(types))
		}
		s := sample{Values: rs.values}
		for _, l := range rs.locs {
			fns, ok := locLines[l]
			if !ok {
				return nil, fmt.Errorf("pprof: sample references unknown location %d", l)
			}
			for _, f := range fns {
				idx, ok := fnNames[f]
				if !ok {
					return nil, fmt.Errorf("pprof: location %d references unknown function %d", l, f)
				}
				name, err := str(idx)
				if err != nil {
					return nil, err
				}
				s.Stack = append(s.Stack, name)
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// fields walks the top-level fields of one protobuf message. For a varint
// field it passes the value and a nil slice; for a length-delimited field
// (sub-message, string, or packed repeated scalar) it passes the bytes,
// non-nil even when empty. Fixed-width fields are skipped.
func fields(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			msg := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, msg); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a packed run of varints.
func varints(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(v)
		b = b[n:]
	}
	return nil
}
