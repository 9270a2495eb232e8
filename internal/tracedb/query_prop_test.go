package tracedb

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/difftest"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/sim"
)

// replay records n cycles of inst in chunks of chunk rows and returns the
// reader plus every row, kept in memory as the brute-force ground truth.
func replay(t *testing.T, inst bench.Instance, n, chunk uint64) (*Reader, [][]uint64) {
	t.Helper()
	d := inst.Design
	e, err := cuttlesim.New(d, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	tb := inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	dir := filepath.Join(t.TempDir(), "trace")
	rec, err := Create(dir, faultinj.OS(), MetaFor(d, chunk))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var rows [][]uint64
	for c := uint64(0); c < n; c++ {
		if c > 0 {
			tb.BeforeCycle(e)
			e.Cycle()
			tb.AfterCycle(e)
		}
		row := make([]uint64, len(d.Registers))
		e.ReadRow(row)
		rows = append(rows, row)
		if err := rec.Append(c, row); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return r, rows
}

// expectQuery answers q by brute force over every replayed row, and
// predicts RowsEvaluated from the engine's contract: a chunk whose index
// summaries fail a constraint costs no evaluation, a chunk whose read set
// never changes costs one, and any other chunk costs one per row visited
// until the answer is known.
func expectQuery(r *Reader, rows [][]uint64, d *ast.Design, p *debug.Predicate, q Query) Result {
	var want Result
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	cons := constraintsOf(d, p.Expr)
	chunks := slices.Clone(r.Chunks())
	if q.Mode == ModeLast {
		slices.Reverse(chunks)
	}
	for _, c := range chunks {
		end := c.Start + c.Count - 1
		if end < q.From || c.Start > q.To {
			continue
		}
		lo, hi := max(c.Start, q.From), min(end, q.To)
		var match []uint64
		for cyc := lo; cyc <= hi; cyc++ {
			if p.Eval(rows[cyc]) {
				match = append(match, cyc)
			}
		}
		pruned := false
		for _, ct := range cons {
			pruned = pruned || !ct.admits(c.Sums[ct.sig])
		}
		if pruned {
			if len(match) > 0 {
				panic("index constraint ruled out a chunk holding a match")
			}
			continue
		}
		constant := true
		for _, s := range p.Reads {
			for cyc := c.Start; cyc <= end; cyc++ {
				constant = constant && rows[cyc][s] == rows[c.Start][s]
			}
		}
		switch {
		case constant:
			want.RowsEvaluated++
		case q.Mode == ModeFirst && len(match) > 0:
			want.RowsEvaluated += match[0] - lo + 1
		case q.Mode == ModeLast && len(match) > 0:
			want.RowsEvaluated += hi - match[len(match)-1] + 1
		case q.Mode == ModeScan && len(want.Matches)+len(match) >= limit:
			want.RowsEvaluated += match[limit-len(want.Matches)-1] - lo + 1
		default:
			want.RowsEvaluated += hi - lo + 1
		}
		if len(match) == 0 {
			continue
		}
		switch q.Mode {
		case ModeFirst:
			want.Matched, want.Cycle = true, match[0]
			return want
		case ModeLast:
			want.Matched, want.Cycle = true, match[len(match)-1]
			return want
		case ModeCount:
			want.Count += uint64(len(match))
		case ModeScan:
			want.Matches = append(want.Matches, match[:min(len(match), limit-len(want.Matches))]...)
			if len(want.Matches) == limit {
				return want
			}
		}
	}
	return want
}

// TestQueryRandomPredicatesMatchReplay checks every query mode, over
// random windows, against a brute-force replay for the random conditions
// the predicate compiler's own oracle uses — plain, and conjoined with a
// signal-equals-recorded-value constraint the index can prune on.
func TestQueryRandomPredicatesMatchReplay(t *testing.T) {
	var insts []bench.Instance
	for seed := int64(1); seed <= 12; seed++ {
		d := difftest.Generate(seed)
		if err := d.Check(); err != nil {
			t.Fatalf("difftest.Generate(%d): %v", seed, err)
		}
		insts = append(insts, bench.Instance{Design: d})
	}
	for _, name := range []string{"collatz", "msi"} {
		bm, _ := bench.Lookup(name)
		insts = append(insts, bm.New())
	}
	const n = 600
	rng := rand.New(rand.NewSource(1))
	var evaluated, skipped int
	for i, inst := range insts {
		d := inst.Design
		r, rows := replay(t, inst, n, 64)
		for k := int64(0); k < 4; k++ {
			expr := difftest.GenerateCondition(d, int64(i)*37+k)
			if k%2 == 1 && len(d.Registers) > 0 {
				reg := d.Registers[rng.Intn(len(d.Registers))]
				v := rows[rng.Intn(n)][d.RegIndex(reg.Name)]
				expr = ast.And(ast.Eq(ast.Rd0(reg.Name), ast.C(reg.Type.BitWidth(), v)), expr)
			}
			p, err := debug.CompileExpr(d, expr)
			if err != nil {
				t.Fatalf("%s: CompileExpr: %v", d.Name, err)
			}
			for _, mode := range []string{ModeFirst, ModeLast, ModeCount, ModeScan} {
				from := uint64(rng.Intn(n))
				q := Query{Mode: mode, From: from, To: from + uint64(rng.Intn(n)), Limit: 1 + rng.Intn(50)}
				got, err := r.query(d, p, q)
				if err != nil {
					t.Fatalf("%s: %s: %v", d.Name, mode, err)
				}
				want := expectQuery(r, rows, d, p, q)
				if got.Matched != want.Matched || got.Cycle != want.Cycle || got.Count != want.Count ||
					!slices.Equal(got.Matches, want.Matches) || got.RowsEvaluated != want.RowsEvaluated {
					t.Fatalf("%s: %s in %d..%d:\n got %+v\nwant %+v", d.Name, mode, q.From, q.To, got, want)
				}
				evaluated += int(got.RowsEvaluated)
				skipped += got.ChunksSkipped
			}
		}
	}
	if evaluated == 0 || skipped == 0 {
		t.Fatalf("queries evaluated %d rows and skipped %d chunks; want both paths exercised", evaluated, skipped)
	}
}
