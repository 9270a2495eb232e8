package tracedb

import (
	"math"
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

// replay records n cycles of inst, registers and fired-rule words, in
// chunks of chunk rows and returns the reader plus every row, kept in
// memory as the brute-force ground truth.
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
	rec, err := Create(dir, faultinj.OS(), MetaFor(d, chunk).WithRules(d))
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
		row := make([]uint64, sim.RowLen(d))
		e.ReadRow(row[:len(d.Registers)])
		e.ReadFired(row[len(d.Registers):])
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
// signal-equals-recorded-value constraint the index can prune on — and
// for fired(rule) terms: alone, negated, and conjoined with both.
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
		regTerm := func() *ast.Node {
			reg := d.Registers[rng.Intn(len(d.Registers))]
			v := rows[rng.Intn(n)][d.RegIndex(reg.Name)]
			return ast.Eq(ast.Rd0(reg.Name), ast.C(reg.Type.BitWidth(), v))
		}
		rule := -1
		fired := func() *ast.Node {
			rule = rng.Intn(len(d.Rules))
			return ast.ExtCall("fired", ast.V(d.Rules[rule].Name))
		}
		for k := int64(0); k < 8; k++ {
			expr := difftest.GenerateCondition(d, int64(i)*37+k)
			switch {
			case len(d.Registers) == 0 || len(d.Rules) == 0:
			case k == 1:
				expr = ast.And(regTerm(), expr)
			case k == 2:
				expr = fired()
			case k == 3:
				expr = ast.Not(fired())
			case k == 4:
				expr = ast.And(fired(), regTerm())
			case k == 5:
				expr = ast.And(ast.And(ast.Not(fired()), regTerm()), expr)
			case k == 6:
				expr = ast.And(fired(), expr)
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
			if k == 2 && rule >= 0 {
				// fired(rule) alone: the index rules out every chunk in
				// which the rule never fired.
				got, err := r.query(d, p, Query{Mode: ModeCount, To: math.MaxUint64})
				if want := firedScans(r, rows, d, rule); err != nil || got.ChunksScanned != want {
					t.Fatalf("%s: count fired(%s) scanned %d chunks (err %v), want %d",
						d.Name, d.Rules[rule].Name, got.ChunksScanned, err, want)
				}
			}
		}
	}
	if evaluated == 0 || skipped == 0 {
		t.Fatalf("queries evaluated %d rows and skipped %d chunks; want both paths exercised", evaluated, skipped)
	}
}

// firedScans counts the chunks a fired(rule) query must row-scan: those in
// which rule ri fired at least once and its fired-rule word changed.
func firedScans(r *Reader, rows [][]uint64, d *ast.Design, ri int) int {
	col, bit := len(d.Registers)+ri/64, uint(ri%64)
	n := 0
	for _, c := range r.Chunks() {
		fired, changed := false, false
		for cyc := c.Start; cyc < c.Start+c.Count; cyc++ {
			fired = fired || rows[cyc][col]>>bit&1 == 1
			changed = changed || rows[cyc][col] != rows[c.Start][col]
		}
		if fired && changed {
			n++
		}
	}
	return n
}

// TestFiredQueriesPruneChunks: on a 5000-cycle msi-buggy recording, a
// fired(rule) query row-scans only the chunks in which the rule fired. A
// rule that never fires is answered from the index alone, and a "last"
// query skips every chunk after the rule's last firing.
func TestFiredQueriesPruneChunks(t *testing.T) {
	bm, _ := bench.Lookup("msi-buggy")
	inst := bm.New()
	d := inst.Design
	r, rows := replay(t, inst, 5000, DefaultChunkCycles)
	ask := func(q string) Result {
		t.Helper()
		pq, err := ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Query(d, pq)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	if res := ask("first fired(p_confirm)"); res.Matched || res.RowsEvaluated != 0 || res.ChunksScanned != 0 {
		t.Fatalf("first fired(p_confirm) = %+v, want no match from the index alone", res)
	}

	ri := slices.IndexFunc(d.Rules, func(r ast.Rule) bool { return r.Name == "c1_handle_down" })
	col, bit := len(d.Registers)+ri/64, uint(ri%64)
	last := -1
	for cyc, row := range rows {
		if row[col]>>bit&1 == 1 {
			last = cyc
		}
	}
	if last < 0 {
		t.Fatal("c1_handle_down never fired in 5000 msi-buggy cycles")
	}
	res := ask("last fired(c1_handle_down)")
	chunk := uint64(last) / DefaultChunkCycles
	after := len(r.Chunks()) - 1 - int(chunk)
	end := min((chunk+1)*DefaultChunkCycles, uint64(len(rows))) - 1
	if !res.Matched || res.Cycle != uint64(last) || res.ChunksScanned != 1 || res.ChunksSkipped != after ||
		res.RowsEvaluated != end-uint64(last)+1 {
		t.Fatalf("last fired(c1_handle_down) = %+v; want cycle %d from 1 scanned chunk, %d skipped, %d rows",
			res, last, after, end-uint64(last)+1)
	}
	if res := ask("count fired(c1_handle_down)"); res.ChunksScanned != firedScans(r, rows, d, ri) {
		t.Fatalf("count fired(c1_handle_down) scanned %d chunks, want %d", res.ChunksScanned, firedScans(r, rows, d, ri))
	}
}
