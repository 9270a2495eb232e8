package bench_test

import (
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/engine"
	"cuttlego/internal/interp"
	"cuttlego/internal/sim"
)

// TestActivityLockstepCatalog is the soundness gate for the activity
// scheduler: on every catalogued design (Table 1 suite + extras), LActivity
// must match the reference interpreter cycle-for-cycle — register state and
// rule firings — and must report exactly the same per-rule attempt and
// commit counts as LStatic, with skipped aborts on top.
func TestActivityLockstepCatalog(t *testing.T) {
	for _, bm := range append(bench.Suite(), bench.Extras()...) {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			refInst := bm.New()
			ref, err := interp.New(refInst.Design)
			if err != nil {
				t.Fatal(err)
			}
			type engine struct {
				name string
				sim  *cuttlesim.Simulator
				tb   sim.Testbench
			}
			var engines []engine
			for _, cfg := range []cuttlesim.Options{
				{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure, Profile: true},
				{Level: cuttlesim.LActivity, Backend: cuttlesim.Closure, Profile: true},
				{Level: cuttlesim.LActivity, Backend: cuttlesim.Bytecode, Profile: true},
			} {
				inst := bm.New()
				s, err := cuttlesim.New(inst.Design, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tb := inst.Bench
				if tb == nil {
					tb = sim.NopBench{}
				}
				engines = append(engines,
					engine{cfg.Level.String() + "/" + cfg.Backend.String(), s, tb})
			}
			refTB := refInst.Bench
			if refTB == nil {
				refTB = sim.NopBench{}
			}
			d := refInst.Design
			for cycle := 0; cycle < 300; cycle++ {
				refTB.BeforeCycle(ref)
				ref.Cycle()
				refTB.AfterCycle(ref)
				want := sim.StateOf(ref)
				for _, e := range engines {
					e.tb.BeforeCycle(e.sim)
					e.sim.Cycle()
					e.tb.AfterCycle(e.sim)
					got := sim.StateOf(e.sim)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("cycle %d: %s reg %s = %v, interp has %v",
								cycle, e.name, d.Registers[i].Name, got[i], want[i])
						}
					}
					for _, r := range d.Rules {
						if e.sim.RuleFired(r.Name) != ref.RuleFired(r.Name) {
							t.Fatalf("cycle %d: %s rule %s fired=%v, interp disagrees",
								cycle, e.name, r.Name, e.sim.RuleFired(r.Name))
						}
					}
				}
			}
			base := engines[0].sim.RuleStats()
			for _, e := range engines[1:] {
				stats := e.sim.RuleStats()
				for i := range base {
					if stats[i].Attempts != base[i].Attempts || stats[i].Commits != base[i].Commits {
						t.Errorf("%s rule %s: %d/%d attempts/commits, static has %d/%d",
							e.name, stats[i].Rule, stats[i].Attempts, stats[i].Commits,
							base[i].Attempts, base[i].Commits)
					}
					if stats[i].Skipped > stats[i].Attempts-stats[i].Commits {
						t.Errorf("%s rule %s: skipped %d exceeds aborts",
							e.name, stats[i].Rule, stats[i].Skipped)
					}
				}
			}
		})
	}
}

// The idle benchmark is the one the activity scheduler was built for: most
// rules park most of the time, yet the final state must be identical.
func TestIdleBenchActivityAgrees(t *testing.T) {
	bm, ok := bench.Lookup("idle")
	if !ok {
		t.Fatal("idle benchmark missing from catalogue")
	}
	ms, err := bench.Measure(bm, engine.MustParse("cuttlesim(static,closure)"), 4000)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := bench.Measure(bm, engine.MustParse("cuttlesim(activity,closure)"), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Digest != ma.Digest {
		t.Fatalf("digest mismatch: static %016x vs activity %016x", ms.Digest, ma.Digest)
	}
	// Something actually moved through the pipeline.
	inst := bm.New()
	e, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LActivity, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(e, nil, 4000)
	if done := e.Reg("done").Val; done == 0 {
		t.Error("no token ever reached the drain stage")
	}
	var skipped uint64
	for _, st := range e.RuleStats() {
		skipped += st.Skipped
	}
	if skipped == 0 {
		t.Error("idle benchmark produced no skips")
	}
}
