package server_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"cuttlego/internal/server"
)

// TestParentFormatMetaResurrects replaces a stored session's meta.json
// with literal engine configs in the form earlier daemons wrote (defaults
// spelled out, pool width as given), then resurrects it on a fresh daemon:
// the session must resume at its checkpoint digest, name its engine by the
// registry, and keep stepping in lockstep with an uninterrupted session of
// the same configuration. Configs naming a retired intra-design pool width
// ("workers": 4) resurrect onto the sequential engine.
func TestParentFormatMetaResurrects(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		config string
		req    server.CreateRequest
		engine string
	}{
		{`{"engine":"rtlsim","backend":"fused","optimize":true,"workers":4}`,
			server.CreateRequest{Engine: "rtlsim", Optimize: true}, "rtlsim(koika,fused,opt)"},
		{`{"engine":"cuttlesim","level":"static","backend":"closure","workers":4}`,
			server.CreateRequest{}, "cuttlesim(static,closure)"},
		{`{"engine":"cuttlesim","level":"activity","backend":"closure","workers":4}`,
			server.CreateRequest{Level: "activity"}, "cuttlesim(activity,closure)"},
		{`{"engine":"cuttlesim","level":"static","backend":"closure"}`,
			server.CreateRequest{}, "cuttlesim(static,closure)"},
		{`{"engine":"cuttlesim","level":"activity","backend":"bytecode","workers":1}`,
			server.CreateRequest{Level: "activity", Backend: "bytecode"}, "cuttlesim(activity,bytecode)"},
		{`{"engine":"rtlsim","backend":"switch"}`,
			server.CreateRequest{Engine: "rtlsim", Backend: "switch"}, "rtlsim(koika,switch)"},
		{`{"engine":"interp"}`, server.CreateRequest{Engine: "interp"}, "interp"},
	} {
		dir := t.TempDir()
		srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
		req := tc.req
		req.Catalog = "fft"
		info, err := cA.Create(ctx, req)
		if err != nil {
			t.Fatalf("%s: create: %v", tc.config, err)
		}
		if _, err := cA.Step(ctx, info.ID, 100); err != nil {
			t.Fatalf("%s: step: %v", tc.config, err)
		}
		ckpt, err := cA.Checkpoint(ctx, info.ID)
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", tc.config, err)
		}
		if err := srvA.Close(); err != nil {
			t.Fatal(err)
		}
		meta := `{"id":"` + info.ID + `","catalog":"fft","config":` + tc.config +
			`,"created":"2026-01-02T03:04:05Z"}`
		if err := os.WriteFile(filepath.Join(dir, "sessions", info.ID, "meta.json"), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}

		_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
		restored, err := cB.Resurrect(ctx, info.ID, ckpt.Checkpoint)
		if err != nil {
			t.Fatalf("%s: resurrect: %v", tc.config, err)
		}
		if restored.Digest != ckpt.Digest || restored.Engine != tc.engine {
			t.Fatalf("%s: resurrected %s at digest %s, want %s at %s",
				tc.config, restored.Engine, restored.Digest, tc.engine, ckpt.Digest)
		}
		fresh, err := cB.Create(ctx, req)
		if err != nil {
			t.Fatalf("%s: fresh create: %v", tc.config, err)
		}
		if _, err := cB.Step(ctx, fresh.ID, 160); err != nil {
			t.Fatal(err)
		}
		if _, err := cB.Step(ctx, info.ID, 60); err != nil {
			t.Fatal(err)
		}
		got, err := cB.Info(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cB.Info(ctx, fresh.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != want.Digest || got.Cycle != want.Cycle {
			t.Fatalf("%s: resurrected session at cycle %d digest %s, fresh one at %d %s",
				tc.config, got.Cycle, got.Digest, want.Cycle, want.Digest)
		}
	}
}
