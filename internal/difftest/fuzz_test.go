package difftest

import (
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/lang"
)

// FuzzDifftest is the native-fuzzing face of the tentpole: the fuzzer picks
// a generator seed and a cycle count, and the whole in-process engine matrix
// (every cuttlesim level and backend, every rtlsim backend on raw and
// optimized netlists) must agree with the reference interpreter
// cycle-for-cycle, rule-for-rule, and profile-for-profile. The printed form
// must also survive the textual frontend, so any divergence the fuzzer finds
// can be written out and replayed.
func FuzzDifftest(f *testing.F) {
	f.Add(int64(1), uint64(8))
	f.Add(int64(7), uint64(32))
	f.Add(int64(1234), uint64(3))
	f.Add(int64(-99), uint64(47))
	f.Fuzz(func(t *testing.T, seed int64, cycles uint64) {
		d := Generate(seed)
		c := d.Clone()
		if err := c.Check(); err != nil {
			t.Fatalf("seed %d: generated design does not check: %v", seed, err)
		}
		if _, err := lang.Parse(c.Print().Text()); err != nil {
			t.Fatalf("seed %d: printed design does not re-parse: %v\n%s", seed, err, c.Print().Text())
		}
		build := func() *ast.Design {
			c := d.Clone()
			c.MustCheck()
			return c
		}
		opts := Options{Engines: InProcess(), Cycles: cycles%48 + 1, Profile: true}
		if fail := Run(build, opts); fail != nil {
			t.Fatalf("seed %d cycles %d: %v\n%s", seed, opts.Cycles, fail, d.Print().Text())
		}
	})
}
