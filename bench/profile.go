package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// simPrefix is the import-path prefix of the simulator's packages.
const simPrefix = "repro/internal/"

// otherPkg collects CPU samples with no simulator frame: the Go runtime's
// own work (GC, scheduler) and the benchmark's own code.
const otherPkg = "other"

// pkgShares decodes a CPU profile written by runtime/pprof and returns each
// simulator package's share of the samples in percent, attributing every
// sample to the innermost frame of a repro/internal/<pkg> function (runtime
// work a simulator function calls, such as map access, counts as that
// package's). It also returns the sample count.
func pkgShares(prof []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	// The profile message (profile.proto): 2 sample, 4 location,
	// 5 function, 6 string table. Samples refer to locations, locations to
	// functions, functions to strings, so collect everything first.
	var (
		samples [][]byte
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	err = protoFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			return decodeLocation(b, locFns)
		case 5:
			var id, name uint64
			if err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	pkgOf := func(loc uint64) (string, bool) {
		for _, fn := range locFns[loc] {
			i := fnName[fn]
			if i >= uint64(len(strs)) {
				continue
			}
			if rest, ok := strings.CutPrefix(strs[i], simPrefix); ok {
				pkg, _, _ := strings.Cut(rest, ".")
				pkg, _, _ = strings.Cut(pkg, "/")
				return pkg, true
			}
		}
		return "", false
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		var locs, vals []uint64
		if err := protoFields(s, func(num int, v uint64, b []byte) error {
			var err error
			switch num {
			case 1:
				locs, err = appendUvarints(locs, v, b)
			case 2:
				vals, err = appendUvarints(vals, v, b)
			}
			return err
		}); err != nil {
			return nil, 0, err
		}
		if len(vals) == 0 {
			continue
		}
		n := int64(vals[0]) // the first sample type counts samples
		pkg := otherPkg
		for _, l := range locs { // leaf first
			if p, ok := pkgOf(l); ok {
				pkg = p
				break
			}
		}
		counts[pkg] += n
		total += n
	}
	shares := make(map[string]float64, len(counts))
	for pkg, n := range counts {
		shares[pkg] = 100 * float64(n) / float64(total)
	}
	return shares, total, nil
}

// decodeLocation records one Location message's function ids (field 4 is a
// repeated Line whose field 1 is the function id; inlined callees first).
func decodeLocation(b []byte, locFns map[uint64][]uint64) error {
	var id uint64
	var fns []uint64
	err := protoFields(b, func(num int, v uint64, line []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			return protoFields(line, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	locFns[id] = fns
	return err
}

var errBadProto = errors.New("profile: malformed protobuf")

// protoFields calls fn for each field of the protobuf message m with its
// number and either its varint value or, for length-delimited fields, its
// bytes. Fixed-width fields are skipped.
func protoFields(m []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(m) > 0 {
		key, n := binary.Uvarint(m)
		if n <= 0 {
			return errBadProto
		}
		m = m[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(m)
			if n <= 0 {
				return errBadProto
			}
			m = m[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(m)
			if n <= 0 || l > uint64(len(m)-n) {
				return errBadProto
			}
			b := m[n : n+int(l)]
			m = m[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(m) < 8 {
				return errBadProto
			}
			m = m[8:]
		case 5:
			if len(m) < 4 {
				return errBadProto
			}
			m = m[4:]
		default:
			return errBadProto
		}
	}
	return nil
}

// appendUvarints appends one repeated-integer field occurrence: a single
// varint v (unpacked encoding) or the varints packed into b.
func appendUvarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errBadProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
