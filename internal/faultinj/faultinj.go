// Package faultinj is a deterministic, seedable fault-injection layer for
// the daemon's three I/O boundaries: the durable store's filesystem calls
// (fs.go), the HTTP client's transport (http.go), and the simulation
// engine's step loop (wrapped in internal/server). A schedule of Rules —
// "fail the 3rd filesystem write", "panic on the 30th engine cycle", "reset
// every 5th HTTP round trip" — is applied against per-operation call
// counters, so a given seed and schedule reproduces exactly the same
// failures on every run. That determinism is the whole point: a chaos-test
// failure must replay, or it cannot be debugged.
//
// The injector never fires on its own; production code paths take a nil
// *Injector and pay only a nil check.
package faultinj

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks every error manufactured by the injector, so tests and
// callers can tell injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultinj: injected fault")

// Kind is the failure mode a rule injects.
type Kind string

const (
	// Fail returns an ErrInjected-wrapped error from the call site.
	Fail Kind = "fail"
	// Tear silently writes only a prefix of the data (filesystem writes
	// only): the call reports success, but the bytes on disk are torn —
	// the post-crash state of an unsynced file.
	Tear Kind = "tear"
	// Panic panics at the call site (engine steps: a simulated engine bug).
	Panic Kind = "panic"
	// Stall sleeps for Delay at the call site, ignoring contexts — a
	// wedged engine or a hung syscall. Default delay 30s.
	Stall Kind = "stall"
	// Latency sleeps for Delay, then lets the call proceed normally.
	Latency Kind = "latency"
	// Timeout fails an HTTP round trip with a net.Error whose Timeout()
	// is true, after an optional Delay.
	Timeout Kind = "timeout"
	// Reset performs the HTTP round trip (the server sees the request),
	// then discards the response and reports a connection reset — the
	// "request executed, reply lost" case idempotency keys exist for.
	Reset Kind = "reset"
	// Truncate performs the HTTP round trip but delivers only the first
	// half of the response body.
	Truncate Kind = "truncate"
)

var kinds = map[Kind]bool{
	Fail: true, Tear: true, Panic: true, Stall: true,
	Latency: true, Timeout: true, Reset: true, Truncate: true,
}

// Rule schedules one fault against an operation class. Exactly one trigger
// applies: Nth (fire on the Nth call, 1-based, then every Every calls when
// Every > 0) or Prob (fire on each call with probability Prob, drawn from
// the injector's seeded generator).
type Rule struct {
	Op    string
	Nth   uint64
	Every uint64
	Prob  float64
	Kind  Kind
	Delay time.Duration
}

// Event is one injected fault, recorded in schedule order so a run's fault
// history can be asserted (and compared across runs for determinism).
type Event struct {
	Op   string
	Call uint64
	Kind Kind
	// Path is the base name of the file a filesystem op touched (the new
	// name, for a rename); empty for the other ops.
	Path string
}

func (e Event) String() string { return fmt.Sprintf("%s#%d:%s", e.Op, e.Call, e.Kind) }

// Injector applies a rule schedule against per-op call counters. A nil
// injector is valid and never fires.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []Rule
	calls  map[string]uint64
	events []Event
}

// New builds an injector over a seeded generator. The seed matters only for
// probabilistic rules; counted (Nth/Every) rules are deterministic in the
// call order alone.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: rules,
		calls: make(map[string]uint64),
	}
}

// Hit records one call of op and reports the first rule that fires on it.
func (in *Injector) Hit(op string) (Rule, bool) { return in.hit(op, "") }

// hit is Hit for a call on the file path, whose base name a fired event
// records.
func (in *Injector) hit(op, path string) (Rule, bool) {
	if in == nil {
		return Rule{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[op]++
	n := in.calls[op]
	for _, r := range in.rules {
		if r.Op != op {
			continue
		}
		fire := false
		switch {
		case r.Nth > 0 && n == r.Nth:
			fire = true
		case r.Nth > 0 && r.Every > 0 && n > r.Nth && (n-r.Nth)%r.Every == 0:
			fire = true
		case r.Nth == 0 && r.Prob > 0:
			fire = in.rng.Float64() < r.Prob
		}
		if fire {
			if path != "" {
				path = filepath.Base(path)
			}
			in.events = append(in.events, Event{Op: op, Call: n, Kind: r.Kind, Path: path})
			return r, true
		}
	}
	return Rule{}, false
}

// Invoke is Hit plus the control-flow kinds applied in place: Panic panics,
// Stall and Latency sleep, everything else returns an injected error. Call
// sites that only need "maybe blow up here" use Invoke; sites with
// kind-specific behavior (torn writes, truncated bodies) use Hit.
func (in *Injector) Invoke(op string) error {
	r, ok := in.Hit(op)
	if !ok {
		return nil
	}
	switch r.Kind {
	case Panic:
		panic(fmt.Sprintf("faultinj: injected panic at %s (call %d)", op, in.Calls(op)))
	case Stall, Latency:
		time.Sleep(r.Delay)
		return nil
	default:
		return fmt.Errorf("%w: %s (%s)", ErrInjected, op, r.Kind)
	}
}

// Calls returns how many times op has been hit.
func (in *Injector) Calls(op string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[op]
}

// Events returns a copy of every fault injected so far, in order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// ParseRules parses a compact schedule: rules separated by ',' or ';', each
// "op:trigger:kind[:delay]". The trigger is "N" (the Nth call), "N+M" (the
// Nth, then every Mth after), or "pF" (probability F per call). Examples:
//
//	fs.write:3:fail            fail the 3rd filesystem write
//	engine.cycle:30:panic      panic on the 30th simulated cycle
//	engine.cycle:10:stall:2s   stall 2s on the 10th cycle
//	http:1+5:reset             reset round trips 1, 6, 11, ...
//	http:p0.05:truncate        truncate ~5% of responses
func ParseRules(spec string) ([]Rule, error) {
	var out []Rule
	for _, field := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' }) {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("faultinj: rule %q: want op:trigger:kind[:delay]", field)
		}
		r := Rule{Op: parts[0], Kind: Kind(parts[2])}
		if r.Op == "" {
			return nil, fmt.Errorf("faultinj: rule %q: empty op", field)
		}
		if !kinds[r.Kind] {
			return nil, fmt.Errorf("faultinj: rule %q: unknown kind %q", field, parts[2])
		}
		trig := parts[1]
		switch {
		case strings.HasPrefix(trig, "p"):
			p, err := strconv.ParseFloat(trig[1:], 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("faultinj: rule %q: bad probability %q", field, trig)
			}
			r.Prob = p
		case strings.Contains(trig, "+"):
			nth, every, _ := strings.Cut(trig, "+")
			n, err1 := strconv.ParseUint(nth, 10, 64)
			m, err2 := strconv.ParseUint(every, 10, 64)
			if err1 != nil || err2 != nil || n == 0 || m == 0 {
				return nil, fmt.Errorf("faultinj: rule %q: bad trigger %q (want N+M)", field, trig)
			}
			r.Nth, r.Every = n, m
		default:
			n, err := strconv.ParseUint(trig, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faultinj: rule %q: bad trigger %q (want N, N+M, or pF)", field, trig)
			}
			r.Nth = n
		}
		switch {
		case len(parts) == 4:
			d, err := time.ParseDuration(parts[3])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinj: rule %q: bad delay %q", field, parts[3])
			}
			r.Delay = d
		case r.Kind == Stall:
			r.Delay = 30 * time.Second
		case r.Kind == Latency:
			r.Delay = 50 * time.Millisecond
		}
		out = append(out, r)
	}
	return out, nil
}
