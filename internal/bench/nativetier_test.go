package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cuttlego/internal/engine"
	"cuttlego/internal/native"
)

// TestNativeTierReport runs the BENCH_4 generator on a small design with a
// short window and checks the report invariants: digest parity across all
// engines, a real cold-compile latency, and valid JSON output.
func TestNativeTierReport(t *testing.T) {
	opts := Options{Cycles: 2_000, Designs: []string{"collatz"}}
	dir := t.TempDir()
	rep, err := MeasureNative(context.Background(), opts, dir)
	if err != nil {
		t.Fatalf("MeasureNative: %v", err)
	}
	if rep.Incomplete {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if rep.Schema != "cuttlego-native/v1" || rep.Toolchain == "" {
		t.Fatalf("bad header: schema=%q toolchain=%q", rep.Schema, rep.Toolchain)
	}
	if len(rep.Compiles) != 1 || rep.Compiles[0].ColdCompileMs <= 0 {
		t.Fatalf("compile economics missing: %+v", rep.Compiles)
	}
	if rep.Compiles[0].WarmCacheMs <= 0 || rep.Compiles[0].WarmCacheMs >= rep.Compiles[0].ColdCompileMs {
		t.Fatalf("warm lookup (%.2fms) should be positive and cheaper than cold build (%.2fms)",
			rep.Compiles[0].WarmCacheMs, rep.Compiles[0].ColdCompileMs)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("want 3 engine rows, got %d", len(rep.Results))
	}
	digest := ""
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("row %s/%s failed: %s", r.Design, r.Engine, r.Error)
		}
		if digest == "" {
			digest = r.StateDigest
		} else if r.StateDigest != digest {
			t.Fatalf("digest mismatch: %s has %s, want %s", r.Engine, r.StateDigest, digest)
		}
	}

	var buf bytes.Buffer
	if err := EncodeNative(&buf, rep); err != nil {
		t.Fatalf("EncodeNative: %v", err)
	}
	var back NativeReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}

	var tbl bytes.Buffer
	RenderNative(&tbl, rep)
	if !strings.Contains(tbl.String(), "compile cache") {
		t.Fatalf("rendered table missing compile-cache block:\n%s", tbl.String())
	}
}

// TestNativeVerifiesAgainstInterp runs the harness Verify path (which must
// not double-apply the embedded testbench) for the native tier against the
// reference interpreter on a design with external functions.
func TestNativeVerifiesAgainstInterp(t *testing.T) {
	c, err := native.OpenCache(t.TempDir(), native.CacheOptions{})
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	bm, ok := Lookup("rv32i")
	if !ok {
		t.Fatal("rv32i not in catalogue")
	}
	if err := Verify(bm, Engine{Spec: engine.MustParse("native"), Cache: c}, Engine{Spec: engine.MustParse("interp")}, 300); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
