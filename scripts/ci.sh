#!/usr/bin/env bash
# CI entry point: formatting, vet, build, the full test suite, and a short
# benchmark smoke pass (100 iterations per Figure 1 cell — enough to catch
# an engine that crashes or hangs under the bench harness, not a timing
# gate). Run from anywhere; it cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every scratch file a stage writes (kdiff reproducers, the cuttlesim
# binary) goes under one work dir, removed on exit.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/kdiff-sweep" "$work/kdiff-regress"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== race: parallel bench runner"
go test -race -run 'Parallel|Ctx|Fuzz' ./internal/bench ./internal/sim

echo "== race: ksimd concurrent sessions"
go test -race -run 'TestConcurrentSessions|TestSessionDurability|TestEviction|TestWorkersFieldBuildsSequentialEngine|TestParentFormatMetaResurrects' ./internal/server

echo "== race: session lifecycle (retire, re-lookup, per-daemon subprocesses)"
# Requests queued behind an eviction, release or export-release land on the
# resurrected session; a deleted lazy fork builds no engine; an eviction
# storm loses no acknowledged step; no request blocks on a wedged session;
# closing one daemon reaps only its own native subprocesses.
go test -race -run 'TestLifecycle' ./internal/server

echo "== race: fault injection, robustness, client retries"
# The whole fault-injection harness and the retrying client run under the
# race detector, plus the server's failure-path tests: torn writes,
# corrupt-checkpoint fallback, engine-panic quarantine, the step watchdog,
# load shedding, and idempotent replay.
go test -race ./internal/faultinj ./internal/kclient ./internal/router
go test -race -run 'Fault|Torn|Corrupt|Quarantine|Wedge|Shedding|Idempotent|RecoverStore' ./internal/server

echo "== race: fleet — CoW forks, export/import parity gates, migration faults"
# The copy-on-write fork paths, the export→import digest+cycle equality
# gate, source-death re-homing, and the leak audit all run under the race
# detector; fork parity is checked from 8 concurrent clients.
go test -race -run 'TestFork|TestExport|TestImport|TestMigrationSource|TestFleetLeak|TestIdemKey' ./internal/server

echo "== race: trace store + DAP — chunked recording, queries, time travel"
# The full tracedb suite (append/resume/truncate, index skipping, VCD
# re-emit, torn-write recovery) and the DAP adapter's scripted sessions
# against a local daemon and a routed fleet run under the race detector,
# plus the server's recording lifecycle: record across restart, fork
# diffing, and durable fork checkpoints.
go test -race ./internal/tracedb ./internal/dap
go test -race -run 'TestTrace|TestForkDurable' ./internal/server

echo "== race: compiled predicates, row reads, trace queries, minted ids"
# Breakpoint and query predicates against the interpreter probe, RowReader
# parity on every engine, indexed queries against brute-force replay,
# recorded rule firings against interp on every tier, format 1 recordings
# (no fired-rule columns), and create ids minted by daemons sharing a
# store, under the race detector.
go test -race -run 'Predicate|RowReader|Query|CreateID|RecordedFired|Format1Recording' ./internal/debug ./internal/tracedb ./internal/server ./internal/sim

echo "== fuzz smoke (5s per target)"
go test ./internal/lang -run='^$' -fuzz='^FuzzLexer$' -fuzztime=5s
go test ./internal/lang -run='^$' -fuzz='^FuzzParser$' -fuzztime=5s
go test ./internal/lang -run='^$' -fuzz='^FuzzElaborate$' -fuzztime=5s
go test ./internal/bench -run='^$' -fuzz='^FuzzLockstep$' -fuzztime=5s
go test ./internal/bench -run='^$' -fuzz='^FuzzStallLockstep$' -fuzztime=5s
go test ./internal/difftest -run='^$' -fuzz='^FuzzDifftest$' -fuzztime=5s
go test ./internal/sim -run='^$' -fuzz='^FuzzSnapshotUnmarshal$' -fuzztime=5s
go test ./internal/server -run='^$' -fuzz='^FuzzServerRequest$' -fuzztime=5s
go test ./internal/tracedb -run='^$' -fuzz='^FuzzParseQuery$' -fuzztime=5s
go test ./internal/tracedb -run='^$' -fuzz='^FuzzChunk$' -fuzztime=5s
go test ./internal/debug -run='^$' -fuzz='^FuzzPredicate$' -fuzztime=5s
go test ./internal/gomodel -run='^$' -fuzz='^FuzzConditionVM$' -fuzztime=5s

echo "== kdiff generative sweep (fixed seeds, all engines, shrink on failure)"
# Every engine in the matrix must track the reference interpreter in
# lockstep over 200 generated designs; any divergence is shrunk and written
# to the work dir for the log.
go run ./cmd/kdiff -seed 1 -count 200 -cycles 200 -engines all -o "$work/kdiff-sweep"

echo "== kdiff regression gate (examples/regress + Case Study 1 deadlock)"
# The committed corpus is covered by TestRegressCorpus in go test; here CI
# additionally asserts the injected msi-buggy dropped-ack deadlock stays
# detectable through the CLI's stall oracle.
go run ./cmd/kdiff -cycles 2000 -engines interp \
    -progress c0_ops_done,c1_ops_done -stall 200 -check 'p_state==1,c0_ops_done>=1' \
    -expect-bug -o "$work/kdiff-regress" msi-buggy

echo "== cuttlesim CLI: engine names (valid name runs, bad name exits 1)"
go run ./cmd/cuttlesim -engine 'rtlsim(koika,fused,opt)' -cycles 2000 collatz >/dev/null
# go run maps every failure to 1, so the exit-code check runs the binary.
cuttlesim_bin="$work/cuttlesim"
go build -o "$cuttlesim_bin" ./cmd/cuttlesim
set +e; "$cuttlesim_bin" -engine 'cuttlesim(static,foo)' -cycles 10 collatz >/dev/null 2>&1; rc=$?; set -e
[ "$rc" -eq 1 ] || { echo "bad engine name exited $rc, want 1" >&2; exit 1; }

echo "== perfbench unit tests (nested module)"
# The end-to-end benchmark's own tests: quantiles, report schema, workload
# gates. perfbench has its own go.mod, so the root go test skips it.
(cd perfbench && go test ./...)

echo "== bench smoke (Fig1, 100x)"
go test -run='^$' -bench=Fig1 -benchtime=100x .

# Two kbench smokes retired with kbench's JSON reports; go test above holds
# their checks. The quick-bench digest gate (every engine on one final
# state per design) is TestEnginesAgreeOnEveryBenchmark in internal/bench:
# all of engine.InProcess against interp over the whole catalogue. The
# native build-cache smoke is TestSingleflight (one cold build, then a warm
# hit) plus TestLockstepStandalone and TestLockstepRV32I (digest parity with
# interp, a batched 2000-cycle Advance included) in internal/native, which
# the native lockstep stage below also reruns.

echo "== kbench conformance matrix (every design x engine vs interp)"
# Exits 1 naming the cells when any engine diverges from the reference
# interpreter.
go run ./cmd/kbench -verify -parallel 0

echo "== native tier: lockstep gate over the zoo (subprocess vs interp)"
# Every standalone zoo design runs compiled under the supervisor in
# cycle-by-cycle lockstep with the reference interpreter; the differential
# net repeats the gate over generated designs (most of which exercise the
# unsupported-design skip path). The mirror-built snapshots are held to the
# interpreter's, and the opcodes protocol 3 retired must be refused. The
# fired-rule words a recording session's servo ships must equal interp's
# per cycle, and fired(rule) breakpoints stop on the same cycle as on the
# in-process tiers.
go test -run 'TestLockstep|TestRunUntilSnapshotFromRow|TestRetiredOpcodesRefused' ./internal/native
go test -run 'TestNativeSpec' ./internal/difftest
go test -run 'TestRecordedFiredMatchesInterp|TestFormat1RecordingServed|TestBreakpointPredicateParityAcrossTiers' ./internal/server

echo "== native tier: ksimd promotion smoke (tier flip, digest parity, reap)"
# A hot cuttlesim session must promote onto a compiled binary with no
# observable state change, demote back in-process when the binary is
# SIGKILLed mid-step, and a closing daemon must leave no orphan subprocess.
go test -run 'TestPromotionDigestParity|TestPromotedSessionDemotesOnCrash|TestCloseReapsSubprocesses' ./internal/server

echo "== ksimd durability smoke (create, step, checkpoint, restart, restore)"
# Builds the daemon, drives it over HTTP on an ephemeral port, kills it
# mid-session, restarts it over the same store, and asserts the resumed
# run's digest matches an uninterrupted in-process one.
go run ./scripts/ksimd-smoke

echo "== ksimd crash gate (3x SIGKILL under chaos load, race build)"
# Race-built daemon, killed -9 under kbench -chaos load three times; after
# each restart every acknowledged checkpoint must resurrect with its
# promised digest and keep simulating in lockstep with an in-process
# replay. See scripts/ksimd-crash.sh.
RACE=1 bash scripts/ksimd-crash.sh

echo "== ksimd fleet smoke (3 backends + router, swarm load, 1 migration)"
# A 3-backend fleet behind ksimd -router under kbench -swarm: routed
# creates, copy-on-write fork storm, one forced live migration. Gated on
# StateDigest parity across every fork and the migration, zero failed
# requests, and clean shutdown of all four processes. See
# scripts/ksimd-swarm.sh.
bash scripts/ksimd-swarm.sh

echo "== kdap smoke (DAP session vs local backend and routed fleet)"
# Real processes end to end: two ksimd backends plus a router over a shared
# store, a kdap bridge in TCP mode, and a scripted DAP client — attach,
# conditional breakpoint, continue, trace-query evaluate, stepBack,
# reverseContinue, then a rule (function) breakpoint, continue to it and
# reverseContinue back to its previous hit — run against a backend directly
# and through the router.
bash scripts/kdap-smoke.sh

echo "CI OK"
