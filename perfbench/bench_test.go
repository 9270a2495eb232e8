package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/sim"
)

func TestSameSeedSameInputs(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if a, b := genSimInputs(seed), genSimInputs(seed); a != b {
			t.Errorf("seed %d: simulate inputs differ: %+v vs %+v", seed, a, b)
		}
		if a, b := genDebugInputs(seed), genDebugInputs(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: debug inputs differ: %+v vs %+v", seed, a, b)
		}
		for c := 0; c < serveClients; c++ {
			a, b := newOpStream(seed, c), newOpStream(seed, c)
			for i := 0; i < 1000; i++ {
				if x, y := a.next(), b.next(); x != y {
					t.Fatalf("seed %d client %d op %d: %+v vs %+v", seed, c, i, x, y)
				}
			}
		}
	}
	if reflect.DeepEqual(genDebugInputs(1), genDebugInputs(2)) {
		t.Error("seeds 1 and 2 generate the same debug inputs")
	}
}

// TestOracleTinyWindow checks the debug oracle against msi's first 30
// cycles, worked out by hand from the two op counters: c0_ops_done is 2 on
// cycles 8-11, 3 on 12-17 and 4 on 18-23; c1_ops_done is 3 on 12-18 and 4
// on 19-24.
func TestOracleTinyWindow(t *testing.T) {
	in := debugInputs{
		Cond:      "c0_ops_done.rd0() == 32'd2 | c1_ops_done.rd0() == 32'd3",
		QueryRows: 31,
		Queries: []string{
			"first c0_ops_done.rd0() == 32'd4 in 0..30",
			"last c1_ops_done.rd0() == 32'd4 in 0..30",
			"count c0_ops_done.rd0() == 32'd3 in 0..30",
			"first c0_ops_done.rd0() == 32'd9 in 0..30",
		},
	}
	or, err := debugOracle(in, map[uint64]bool{30: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}; !slices.Equal(or.hits, want) {
		t.Errorf("hits %v, want %v", or.hits, want)
	}
	if got := or.hitsUpTo(10); !slices.Equal(got, []uint64{8, 9, 10}) {
		t.Errorf("hits up to 10: %v", got)
	}
	want := []struct {
		matched bool
		cycle   uint64
		count   uint64
	}{{true, 18, 0}, {true, 24, 0}, {false, 0, 6}, {false, 0, 0}}
	for i, w := range want {
		a := or.answers[i]
		if a.Matched != w.matched || a.Cycle != w.cycle || a.Count != w.count {
			t.Errorf("%s: matched=%v cycle=%d count=%d, want %+v", in.Queries[i], a.Matched, a.Cycle, a.Count, w)
		}
	}
	if _, ok := or.digests[30]; !ok {
		t.Error("no digest at cycle 30")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program:\n%+v\n%+v", doc.PerLayer, perLayer)
	}
}

// TestWrongDigestIsAFailedOperation feeds the serve oracle one true and one
// deliberately wrong observation: the wrong one is one failed operation,
// and the run still reports every metric.
func TestWrongDigestIsAFailedOperation(t *testing.T) {
	bm, _ := bench.Lookup("collatz")
	e := cuttlesim.MustNew(bm.New().Design, cuttlesim.Options{Level: cuttlesim.LStatic})
	sim.Run(e, sim.NopBench{}, 100)
	good := serveEvent{cycle: 100, hash: sim.StateDigest(e), kind: opCheckpoint}
	bad := serveEvent{cycle: 200, hash: 0x0123456789abcdef, kind: opStep}
	cfg := &config{tr: newTracer(false), rep: newReport()}
	if err := serveReplay(cfg, "s", []serveEvent{good, bad}); err != nil {
		t.Fatal(err)
	}
	res := cfg.rep.result(endToEnd)
	if res.Attempted != 2 || res.Failed != 1 || res.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 2, 1, false (%v)", res.Attempted, res.Failed, res.Correct, cfg.rep.failures)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
	}
}

func TestHistQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h hist
	var xs []float64
	for i := 0; i < 20000; i++ {
		v := 0.1 * math.Exp(r.NormFloat64())
		h.add(v)
		xs = append(xs, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), quantile(xs, q)
		if math.Abs(got/want-1) > 0.006 {
			t.Errorf("q%.2f: hist %.6f, exact %.6f", q, got, want)
		}
	}
}

// deterministicCounts are the per-layer counts that must repeat exactly
// for a seed when the timed phase runs a fixed number of rounds.
var deterministicCounts = []string{
	"cuttlesim.commits", "cuttlesim.attempts", "netopt.nets_before", "netopt.nets_after",
	"native.compiles", "native.cache_hits", "debug.hits", "tracedb.chunks_written",
	"tracedb.chunks_scanned", "tracedb.chunks_skipped", "tracedb.rows_evaluated",
	"server.checkpoints", "server.forks", "server.lazy_forks", "server.shed", "trace.spans",
}

func runOnce(t *testing.T, o options) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o.out = t.TempDir()
	if code := execute(o, &stdout, &stderr); code != 0 {
		t.Fatalf("run %+v: exit %d\n%s", o, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %+v: correct=%v attempted=%d failed=%d\n%s", o, res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	return res
}

// TestCountsRepeat runs every workload twice per mode with the same seed
// and a fixed round budget: every metric is reported, and the traced run's
// counts are identical between the two runs.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 7, budget: budget{rounds: 4}}
			plain := runOnce(t, o)
			for _, m := range endToEnd {
				if v, ok := plain.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("end-to-end %s: %+v", m.Name, v)
				}
			}
			o.trace = true
			a := runOnce(t, o)
			b := runOnce(t, o)
			if len(a.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(a.Metrics), len(perLayer))
			}
			if a.Attempted != b.Attempted {
				t.Errorf("attempted %d then %d", a.Attempted, b.Attempted)
			}
			for _, n := range deterministicCounts {
				if a.Metrics[n] != b.Metrics[n] {
					t.Errorf("%s: %v then %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
				}
			}
		})
	}
}
