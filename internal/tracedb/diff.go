package tracedb

import (
	"fmt"
)

// DiffEntry is one signal whose value differs between two recordings at
// the compared cycle.
type DiffEntry struct {
	Signal string
	Width  int
	A, B   uint64
}

// sameSchema verifies two recordings describe the same signals; diffing
// anything else would compare unrelated columns.
func sameSchema(a, b *Reader) error {
	if !a.meta.equalSignals(b.meta) {
		return fmt.Errorf("tracedb: recordings have different schemas (%s: %d signals, %s: %d signals)",
			a.meta.Design, len(a.meta.Signals), b.meta.Design, len(b.meta.Signals))
	}
	return nil
}

// DiffAt compares the state of two recordings at one cycle and returns
// every differing signal (empty = identical).
func DiffAt(a, b *Reader, cycle uint64) ([]DiffEntry, error) {
	if err := sameSchema(a, b); err != nil {
		return nil, err
	}
	ra, err := a.Row(cycle)
	if err != nil {
		return nil, err
	}
	rb, err := b.Row(cycle)
	if err != nil {
		return nil, err
	}
	var out []DiffEntry
	for i, s := range a.meta.Signals {
		if ra[i] != rb[i] {
			out = append(out, DiffEntry{Signal: s.Name, Width: s.Width, A: ra[i], B: rb[i]})
		}
	}
	return out, nil
}

// FirstDivergence finds the earliest cycle in [from, to] (clamped to the
// overlap of both recordings) where the two runs' states disagree. It
// compares the signals of raw rows; the sequential chunk cache keeps this
// one decode per chunk per side.
func FirstDivergence(a, b *Reader, from, to uint64) (cycle uint64, diverged bool, err error) {
	if err := sameSchema(a, b); err != nil {
		return 0, false, err
	}
	af, al, aok := a.Bounds()
	bf, bl, bok := b.Bounds()
	if !aok || !bok {
		return 0, false, fmt.Errorf("tracedb: cannot diff an empty recording")
	}
	lo, hi := max(af, bf), min(al, bl)
	if from > lo {
		lo = from
	}
	if to < hi {
		hi = to
	}
	if lo > hi {
		return 0, false, fmt.Errorf("tracedb: recordings do not overlap in %d..%d", from, to)
	}
	for cyc := lo; cyc <= hi; cyc++ {
		ra, err := a.Row(cyc)
		if err != nil {
			return 0, false, err
		}
		rb, err := b.Row(cyc)
		if err != nil {
			return 0, false, err
		}
		for i := range a.meta.Signals {
			if ra[i] != rb[i] {
				return cyc, true, nil
			}
		}
	}
	return 0, false, nil
}
