package gomodel_test

import (
	"encoding/binary"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/difftest"
	"cuttlego/internal/gomodel"
)

// FuzzConditionVM feeds the condition VM's verifier arbitrary programs,
// seeded with encoded conditions: whatever it accepts must evaluate
// without a panic, since a servo program runs every accepted program over
// its live state.
func FuzzConditionVM(f *testing.F) {
	d := bench.FFTBench(8).MustCheck()
	for seed := int64(1); seed <= 8; seed++ {
		expr := difftest.GenerateCondition(d, seed)
		if _, err := d.CheckExpr(expr); err != nil {
			continue // not 1-bit effect-free conditions are rejected upstream
		}
		c, err := gomodel.EncodeCondition(d, expr)
		if err != nil {
			f.Fatalf("EncodeCondition: %v", err)
		}
		var raw []byte
		for _, w := range c.Code() {
			raw = binary.LittleEndian.AppendUint64(raw, w)
		}
		f.Add(raw, uint64(seed))
	}
	row := make([]uint64, len(d.Registers))
	f.Fuzz(func(t *testing.T, raw []byte, fill uint64) {
		prog := make([]uint64, len(raw)/8)
		for i := range prog {
			prog[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		c, err := gomodel.NewCondition(prog, len(row))
		if err != nil {
			return
		}
		for i := range row {
			row[i] = fill * uint64(i+1)
		}
		c.Eval(row)
	})
}
