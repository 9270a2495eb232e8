package faultinj

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("fs.write:3:fail, engine.cycle:10+5:panic; http:p0.25:reset, fs.sync:2:latency:10ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Op: "fs.write", Nth: 3, Kind: Fail},
		{Op: "engine.cycle", Nth: 10, Every: 5, Kind: Panic},
		{Op: "http", Prob: 0.25, Kind: Reset},
		{Op: "fs.sync", Nth: 2, Kind: Latency, Delay: 10 * time.Millisecond},
	}
	if !reflect.DeepEqual(rules, want) {
		t.Fatalf("got %+v want %+v", rules, want)
	}
	if _, err := ParseRules("engine.cycle:5:stall"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"fs.write:3",           // missing kind
		"fs.write:0:fail",      // zero trigger
		"fs.write:3:explode",   // unknown kind
		":3:fail",              // empty op
		"fs.write:p1.5:fail",   // probability out of range
		"fs.write:3+0:fail",    // zero period
		"fs.write:3:fail:-1s",  // negative delay
		"fs.write:3:fail:soon", // unparsable delay
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q): want error", bad)
		}
	}
	if rules, err := ParseRules("  ,; "); err != nil || len(rules) != 0 {
		t.Errorf("blank spec: got %v, %v", rules, err)
	}
}

func TestNthAndEveryTriggers(t *testing.T) {
	in := New(1, Rule{Op: "x", Nth: 3, Every: 2, Kind: Fail})
	var fired []uint64
	for i := 1; i <= 10; i++ {
		if _, ok := in.Hit("x"); ok {
			fired = append(fired, uint64(i))
		}
	}
	if want := []uint64{3, 5, 7, 9}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired on calls %v, want %v", fired, want)
	}
	// Other ops don't advance x's counter.
	if n := in.Calls("y"); n != 0 {
		t.Fatalf("op y counted %d calls", n)
	}
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	run := func(seed int64) []Event {
		in := New(seed, Rule{Op: "a", Prob: 0.3, Kind: Fail}, Rule{Op: "b", Nth: 2, Every: 3, Kind: Panic})
		for i := 0; i < 50; i++ {
			in.Hit("a")
			in.Hit("b")
		}
		return in.Events()
	}
	if !reflect.DeepEqual(run(42), run(42)) {
		t.Fatal("same seed produced different schedules")
	}
	// Sanity: a probabilistic rule at p=0.3 over 50 calls fires sometimes.
	if len(run(42)) <= 16 { // 16 = deterministic b firings alone
		t.Fatal("probabilistic rule never fired")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if _, ok := in.Hit("x"); ok {
		t.Fatal("nil injector fired")
	}
	if err := in.Invoke("x"); err != nil {
		t.Fatal(err)
	}
	if in.Events() != nil || in.Calls("x") != 0 {
		t.Fatal("nil injector recorded state")
	}
}

func TestInvokeKinds(t *testing.T) {
	in := New(1,
		Rule{Op: "f", Nth: 1, Kind: Fail},
		Rule{Op: "p", Nth: 1, Kind: Panic},
		Rule{Op: "l", Nth: 1, Kind: Latency, Delay: time.Millisecond},
	)
	if err := in.Invoke("f"); !errors.Is(err, ErrInjected) {
		t.Fatalf("fail: got %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic kind did not panic")
			}
		}()
		in.Invoke("p")
	}()
	if err := in.Invoke("l"); err != nil {
		t.Fatalf("latency: got %v", err)
	}
	events := in.Events()
	if len(events) != 3 {
		t.Fatalf("want 3 events, got %v", events)
	}
	if s := events[0].String(); s != "f#1:fail" {
		t.Fatalf("event string: %q", s)
	}
}

func TestInjectorConcurrentAccess(t *testing.T) {
	in := New(7, Rule{Op: "x", Prob: 0.5, Kind: Fail})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Hit("x")
				in.Events()
			}
		}()
	}
	wg.Wait()
	if n := in.Calls("x"); n != 800 {
		t.Fatalf("counted %d calls, want 800", n)
	}
}

func TestFaultFSWriteFailAndTear(t *testing.T) {
	dir := t.TempDir()
	in := New(1, Rule{Op: "fs.write", Nth: 1, Kind: Fail}, Rule{Op: "fs.write", Nth: 2, Kind: Tear})
	fs := NewFS(OS(), in)
	data := []byte("0123456789abcdef")

	if err := fs.WriteFile(filepath.Join(dir, "a"), data, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("call 1: want injected failure, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); !os.IsNotExist(err) {
		t.Fatal("failed write left a file behind")
	}
	// Torn write reports success but persists only half the bytes.
	if err := fs.WriteFile(filepath.Join(dir, "b"), data, 0o644); err != nil {
		t.Fatalf("call 2 (tear): %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01234567" {
		t.Fatalf("torn write persisted %q", got)
	}
	// Call 3: clean.
	if err := fs.WriteFile(filepath.Join(dir, "c"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "c")); string(got) != string(data) {
		t.Fatalf("clean write persisted %q", got)
	}
}

func TestFaultFSRenameSyncRead(t *testing.T) {
	dir := t.TempDir()
	in := New(1,
		Rule{Op: "fs.rename", Nth: 1, Kind: Fail},
		Rule{Op: "fs.sync", Nth: 1, Kind: Fail},
		Rule{Op: "fs.read", Nth: 1, Kind: Fail},
		Rule{Op: "fs.read", Nth: 2, Kind: Truncate},
	)
	fs := NewFS(OS(), in)
	src := filepath.Join(dir, "src")
	if err := fs.WriteFile(src, []byte("payload!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(src, filepath.Join(dir, "dst")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: %v", err)
	}
	if err := fs.Sync(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: %v", err)
	}
	if _, err := fs.ReadFile(src); !errors.Is(err, ErrInjected) {
		t.Fatalf("read: %v", err)
	}
	if got, err := fs.ReadFile(src); err != nil || string(got) != "payl" {
		t.Fatalf("truncated read: %q, %v", got, err)
	}
	if got, err := fs.ReadFile(src); err != nil || string(got) != "payload!" {
		t.Fatalf("clean read: %q, %v", got, err)
	}
	if err := fs.Rename(src, filepath.Join(dir, "dst")); err != nil {
		t.Fatalf("clean rename: %v", err)
	}
	if err := fs.Sync(dir); err != nil {
		t.Fatalf("clean sync: %v", err)
	}
}

func TestOSSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := OS().Sync(dir); err != nil {
		t.Fatal(err)
	}
	// Sync takes files as well as directories.
	file := filepath.Join(dir, "f")
	if err := OS().WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := OS().Sync(file); err != nil {
		t.Fatal(err)
	}
}

func TestTransportKinds(t *testing.T) {
	var served int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		fmt.Fprint(w, `{"status":"ok","padding":"xxxxxxxxxxxxxxxx"}`)
	}))
	defer ts.Close()

	in := New(1,
		Rule{Op: "http", Nth: 1, Kind: Fail},
		Rule{Op: "http", Nth: 2, Kind: Timeout},
		Rule{Op: "http", Nth: 3, Kind: Reset},
		Rule{Op: "http", Nth: 4, Kind: Truncate},
	)
	client := &http.Client{Transport: &Transport{Inj: in}}

	// 1: fail before send — server never sees it.
	if _, err := client.Get(ts.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("fail: %v", err)
	}
	if served != 0 {
		t.Fatal("fail kind reached the server")
	}
	// 2: timeout — implements net.Error with Timeout()==true.
	_, err := client.Get(ts.URL)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("timeout: %v", err)
	}
	if served != 0 {
		t.Fatal("timeout kind reached the server")
	}
	// 3: reset — the server DOES execute the request, client sees an error.
	if _, err := client.Get(ts.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("reset: %v", err)
	}
	if served != 1 {
		t.Fatalf("reset kind: server saw %d requests, want 1", served)
	}
	// 4: truncate — half the body arrives.
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 43/2 && len(body) >= 43 {
		t.Fatalf("truncate delivered full body (%d bytes)", len(body))
	}
	// 5: clean pass-through.
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != `{"status":"ok","padding":"xxxxxxxxxxxxxxxx"}` {
		t.Fatalf("clean round trip delivered %q", body)
	}
}
