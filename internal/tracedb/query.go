package tracedb

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/debug"
)

// Query modes.
const (
	ModeFirst = "first" // earliest matching cycle in the window
	ModeLast  = "last"  // latest matching cycle in the window
	ModeCount = "count" // number of matching cycles
	ModeScan  = "scan"  // every matching cycle, up to Limit
)

// DefaultScanLimit bounds scan results when the query doesn't.
const DefaultScanLimit = 1000

// Query is one time-travel question over a recording. Expr is a 1-bit
// effect-free predicate in the textual dialect (the same language
// conditional breakpoints use, fired(rule) included); the window
// [From, To] is inclusive and defaults to the whole recording.
type Query struct {
	Mode  string
	Expr  string
	From  uint64
	To    uint64 // inclusive; math.MaxUint64 (or 0 with From 0 via ParseQuery default) = end
	Limit int    // scan mode: max matches returned; 0 = DefaultScanLimit
}

// Result is a query's answer plus the work accounting that proves it came
// from the index: ChunksSkipped counts chunks disposed of by summaries
// alone, RowsEvaluated counts predicate evaluations actually performed.
type Result struct {
	Matched bool     // first/last: a matching cycle exists
	Cycle   uint64   // first/last: the matching cycle
	Count   uint64   // count: matching cycles in the window
	Matches []uint64 // scan: matching cycles, ascending, truncated at Limit

	ChunksScanned int    // chunk files decoded and row-scanned
	ChunksSkipped int    // chunks resolved from index summaries alone
	RowsEvaluated uint64 // predicate evaluations performed
}

// ParseQuery parses the one-line query syntax used by kdbg and DAP
// evaluate:
//
//	first|last|count|scan <expr> [in <from>..<to>]
//
// e.g. `first cache.state.rd0() == state::M in 0..50000`.
func ParseQuery(s string) (Query, error) {
	s = strings.TrimSpace(s)
	mode, rest, _ := strings.Cut(s, " ")
	switch mode {
	case ModeFirst, ModeLast, ModeCount, ModeScan:
	default:
		return Query{}, fmt.Errorf("tracedb: query must start with first, last, count, or scan (got %q)", mode)
	}
	q := Query{Mode: mode, To: math.MaxUint64}
	expr := strings.TrimSpace(rest)
	// A trailing " in A..B" clause is a cycle window. Scan from the right so
	// the expression itself may contain the word "in" inside identifiers.
	if i := strings.LastIndex(expr, " in "); i >= 0 {
		if from, to, ok := parseWindow(expr[i+4:]); ok {
			q.From, q.To = from, to
			expr = strings.TrimSpace(expr[:i])
		}
	}
	if expr == "" {
		return Query{}, fmt.Errorf("tracedb: query %q has no expression", s)
	}
	if q.To < q.From {
		return Query{}, fmt.Errorf("tracedb: query window %d..%d is empty", q.From, q.To)
	}
	q.Expr = expr
	return q, nil
}

func parseWindow(s string) (from, to uint64, ok bool) {
	a, b, found := strings.Cut(strings.TrimSpace(s), "..")
	if !found {
		return 0, 0, false
	}
	from, err1 := strconv.ParseUint(strings.TrimSpace(a), 10, 64)
	to, err2 := strconv.ParseUint(strings.TrimSpace(b), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return from, to, true
}

func (q Query) String() string {
	w := ""
	if q.From != 0 || q.To != math.MaxUint64 {
		w = fmt.Sprintf(" in %d..%d", q.From, q.To)
	}
	return q.Mode + " " + q.Expr + w
}

// constraint is one index-prunable conjunct of the predicate: a comparison
// between a signal read and a constant, or a fired(rule) term. A chunk
// whose summary cannot satisfy every constraint cannot contain a match.
type constraint struct {
	sig int
	op  ast.Op // OpSlice: fired(rule), bit mask c of fired-rule word sig
	c   uint64
	rev bool // constant on the left: c OP signal
}

func (ct constraint) admits(s SigSum) bool {
	if ct.op == ast.OpSlice { // the rule fired in some cycle: the OR has its bit
		return s.Max&ct.c != 0
	}
	if !ct.rev {
		switch ct.op {
		case ast.OpEq:
			return s.Min <= ct.c && ct.c <= s.Max
		case ast.OpNeq:
			return s.Changed || s.Min != ct.c
		case ast.OpLtu:
			return s.Min < ct.c
		case ast.OpGeu:
			return s.Max >= ct.c
		}
		return true
	}
	switch ct.op {
	case ast.OpEq:
		return s.Min <= ct.c && ct.c <= s.Max
	case ast.OpNeq:
		return s.Changed || s.Min != ct.c
	case ast.OpLtu: // c < signal
		return ct.c < s.Max
	case ast.OpGeu: // c >= signal
		return ct.c >= s.Min
	}
	return true
}

// constraintsOf decomposes a checked predicate's top-level conjunctions
// and keeps every `signal OP constant` and every fired(rule) conjunct as
// an index constraint. Signal i is register i of d; fired-rule word w is
// column len(d.Registers)+w. The predicate is still evaluated in full on
// surviving rows; constraints only rule chunks out, so missing one (an
// OR, a signed compare, an arithmetic subterm, a negated fired(rule))
// costs scan time, never correctness.
func constraintsOf(d *ast.Design, n *ast.Node) []constraint {
	if word, bit, ok := debug.FiredBit(n); ok {
		return []constraint{{sig: len(d.Registers) + word, op: ast.OpSlice, c: 1 << bit}}
	}
	if n.Kind != ast.KBinop {
		return nil
	}
	switch n.Op {
	case ast.OpAnd:
		return append(constraintsOf(d, n.A), constraintsOf(d, n.B)...)
	case ast.OpEq, ast.OpNeq, ast.OpLtu, ast.OpGeu:
	default:
		return nil
	}
	if n.A.Kind == ast.KRead && n.B.Kind == ast.KConst {
		return []constraint{{sig: d.RegIndex(n.A.Name), op: n.Op, c: n.B.Val.Val}}
	}
	if n.A.Kind == ast.KConst && n.B.Kind == ast.KRead {
		return []constraint{{sig: d.RegIndex(n.B.Name), op: n.Op, c: n.A.Val.Val, rev: true}}
	}
	return nil
}

// Query answers q against the recording. d must be the design the
// recording was made from (schema-checked). Chunks are ruled out by the
// index — constraint summaries first, then the all-read-signals-unchanged
// fast path which evaluates the predicate once per chunk instead of once
// per row — and only surviving chunks are row-scanned, decoding just the
// columns of the predicate's read set.
func (r *Reader) Query(d *ast.Design, q Query) (Result, error) {
	var res Result
	switch q.Mode {
	case ModeFirst, ModeLast, ModeCount, ModeScan:
	default:
		return res, fmt.Errorf("tracedb: unknown query mode %q", q.Mode)
	}
	if q.To < q.From {
		return res, fmt.Errorf("tracedb: query window %d..%d is empty", q.From, q.To)
	}
	if err := r.meta.CheckDesign(d); err != nil {
		return res, err
	}
	pred, err := debug.Compile(d, q.Expr)
	if err != nil {
		return res, err
	}
	if pred.Fired && len(r.meta.Rules) == 0 {
		return res, ErrNoFired
	}
	return r.query(d, pred, q)
}

// query answers q, whose mode and window are valid, with pred compiled for
// d; the schema check guarantees column i is d's register i, and, when
// pred reads fired-rule words, that they follow. q.Expr is not consulted.
func (r *Reader) query(d *ast.Design, pred *debug.Predicate, q Query) (Result, error) {
	var res Result
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	constraints := constraintsOf(d, pred.Expr)
	// row holds the predicate's read set; no other slot is ever filled.
	row := make([]uint64, r.meta.Columns())
	cols := make([][]uint64, len(pred.Reads))

	// evalConst answers the predicate for a chunk whose read set is
	// unchanged: build the one distinct row from the summaries and evaluate
	// it once.
	evalConst := func(c ChunkInfo) bool {
		for _, s := range pred.Reads {
			row[s] = c.Sums[s].Min
		}
		res.RowsEvaluated++
		return pred.Eval(row)
	}

	backward := q.Mode == ModeLast
	for ci := range r.chunks {
		i := ci
		if backward {
			i = len(r.chunks) - 1 - ci
		}
		c := r.chunks[i]
		last := c.Start + c.Count - 1
		if last < q.From || c.Start > q.To {
			continue
		}
		lo, hi := c.Start, last
		if q.From > lo {
			lo = q.From
		}
		if q.To < hi {
			hi = q.To
		}
		pruned := false
		for _, ct := range constraints {
			if !ct.admits(c.Sums[ct.sig]) {
				pruned = true
				break
			}
		}
		if pruned {
			res.ChunksSkipped++
			continue
		}
		allConst := true
		for _, s := range pred.Reads {
			if c.Sums[s].Changed {
				allConst = false
				break
			}
		}
		if allConst {
			res.ChunksSkipped++
			if !evalConst(c) {
				continue
			}
			// Every row in [lo, hi] matches.
			switch q.Mode {
			case ModeFirst:
				res.Matched, res.Cycle = true, lo
				return res, nil
			case ModeLast:
				res.Matched, res.Cycle = true, hi
				return res, nil
			case ModeCount:
				res.Count += hi - lo + 1
			case ModeScan:
				for cyc := lo; cyc <= hi && len(res.Matches) < limit; cyc++ {
					res.Matches = append(res.Matches, cyc)
				}
				if len(res.Matches) >= limit {
					return res, nil
				}
			}
			continue
		}
		v, err := r.loadChunk(i)
		if err != nil {
			return res, err
		}
		res.ChunksScanned++
		for k, s := range pred.Reads {
			cols[k] = v.col(s)
		}
		evalRow := func(cyc uint64) bool {
			off := cyc - c.Start
			for k, s := range pred.Reads {
				row[s] = cols[k][off]
			}
			res.RowsEvaluated++
			return pred.Eval(row)
		}
		if backward {
			for cyc := hi; ; cyc-- {
				if evalRow(cyc) {
					res.Matched, res.Cycle = true, cyc
					return res, nil
				}
				if cyc == lo {
					break
				}
			}
			continue
		}
		for cyc := lo; cyc <= hi; cyc++ {
			if !evalRow(cyc) {
				continue
			}
			switch q.Mode {
			case ModeFirst:
				res.Matched, res.Cycle = true, cyc
				return res, nil
			case ModeCount:
				res.Count++
			case ModeScan:
				res.Matches = append(res.Matches, cyc)
				if len(res.Matches) >= limit {
					return res, nil
				}
			}
		}
	}
	return res, nil
}
