package main

import (
	"fmt"
	"math/rand"
)

// The benchmark derives every input from --seed; the program under test only
// ever sees the generated values (a RISC-V program, breakpoint and query
// text, a request sequence).

// simInputs drive the simulate workload.
type simInputs struct {
	// PrimesLimit sizes the rv32i program (primes below the limit by trial
	// division); the program halts only after several million cycles, well
	// past the timed window.
	PrimesLimit uint32
	// Prefix is the untimed cycle count on which every engine is checked
	// against the reference interpreter.
	Prefix uint64
}

func genSimInputs(seed int64) simInputs {
	r := rand.New(rand.NewSource(seed))
	return simInputs{
		PrimesLimit: 1000 + uint32(r.Intn(400)),
		Prefix:      1500 + uint64(r.Intn(1000)),
	}
}

// debugInputs drive the debug workload on the msi design.
type debugInputs struct {
	// Cond is the conditional breakpoint: it holds for a few cycles around
	// the points where either core has completed a seeded number of
	// operations, early enough that every session hits it a handful of
	// times inside its window (a core completes an operation about every
	// six cycles).
	Cond string
	// QueryRows is the recorded window [0, QueryRows) every query covers.
	QueryRows uint64
	// Queries is the query set, in the daemon's one-line syntax.
	Queries []string
}

func genDebugInputs(seed int64) debugInputs {
	r := rand.New(rand.NewSource(seed))
	const rows = 1 << 14
	in := debugInputs{
		Cond:      fmt.Sprintf("c0_ops_done.rd0() == 32'd%d | c1_ops_done.rd0() == 32'd%d", 20+r.Intn(300), 20+r.Intn(300)),
		QueryRows: rows,
	}
	win := fmt.Sprintf(" in 0..%d", rows-1)
	// The seed picks constants and lines only, never the shape of a query,
	// so every seed asks for the same amount of index and scan work.
	// Answered from chunk summaries: the op counters are monotonic, so
	// their min/max rule out every chunk but one.
	in.Queries = append(in.Queries,
		fmt.Sprintf("first c0_ops_done.rd0() == 32'd%d", 1000+r.Intn(9000))+win,
		fmt.Sprintf("count c1_ops_done.rd0() == 32'd%d", 1000+r.Intn(9000))+win,
		fmt.Sprintf("last c0_ops_done.rd0() == 32'd%d", 1000+r.Intn(9000))+win,
	)
	// A scan of every row: no conjunct compares one signal with a constant,
	// and the read signals change inside every chunk. The first never
	// matches (the data words stay below 2^31).
	line := r.Intn(8)
	in.Queries = append(in.Queries,
		fmt.Sprintf("count (c0_line_data_%d.rd0() ^ c1_line_data_%d.rd0()) == 32'd0", line, line)+win,
		fmt.Sprintf("first (c0_out_data.rd0() ^ c1_out_data.rd0()) == 32'd%d", 1<<31+r.Intn(1<<30))+win,
		"count c0_gen_cnt.rd0() == c1_gen_cnt.rd0()"+win,
	)
	return in
}

// opKind is one serve request type.
type opKind int

const (
	opStep       opKind = iota // step 64 cycles
	opPeek                     // read every register
	opCheckpoint               // durable checkpoint
	opFork                     // fork, then delete the fork
)

func (k opKind) String() string {
	return [...]string{"step", "peek", "checkpoint", "fork"}[k]
}

// servePerClient is how many sessions each serve client owns.
const servePerClient = 8

// serveStepCycles is the cycle count of one serve step request.
const serveStepCycles = 64

// serveOp is one request of a serve client: which of its sessions, and what.
type serveOp struct {
	Session int
	Kind    opKind
}

// opStream generates one client's seeded, endless request sequence: about
// 90% steps, the rest peeks, checkpoints and fork-then-delete.
type opStream struct{ r *rand.Rand }

func newOpStream(seed int64, client int) *opStream {
	return &opStream{r: rand.New(rand.NewSource(seed*7919 + int64(client)))}
}

func (s *opStream) next() serveOp {
	op := serveOp{Session: s.r.Intn(servePerClient)}
	switch p := s.r.Intn(100); {
	case p < 90:
		op.Kind = opStep
	case p < 95:
		op.Kind = opPeek
	case p < 98:
		op.Kind = opCheckpoint
	default:
		op.Kind = opFork
	}
	return op
}
