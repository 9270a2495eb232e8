#!/usr/bin/env bash
# Fleet smoke gate: a 3-backend ksimd fleet behind `ksimd -router`, driven
# by the `kbench -swarm` load generator.
#
# Three daemons share one durable store; the router consistent-hashes
# session ids across them. The swarm creates sessions through the router,
# steps them, storms them with copy-on-write forks, and forces one live
# migration. kbench exits nonzero on any StateDigest parity violation
# (forks and migrations must reproduce their source state bit-exactly) or
# on any failed request beyond deliberate load shedding, and this script
# additionally requires every process to shut down cleanly.
#
# Environment:
#   SESSIONS  swarm sessions (default 12)
#   FORKS     forks per session (default 4)
#   STEPS     step RPCs per session (default 4)
#   CYCLES    cycles per step RPC (default 200)
#   MAXSESS   per-backend live session bound (default 64; lower it to put
#             the parity checks under eviction churn)
#   RACE=1    build all binaries with the race detector
set -euo pipefail
cd "$(dirname "$0")/.."

SESSIONS="${SESSIONS:-12}"
FORKS="${FORKS:-4}"
STEPS="${STEPS:-4}"
CYCLES="${CYCLES:-200}"
MAXSESS="${MAXSESS:-64}"
RACE="${RACE:-0}"

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

build_flags=()
if [ "$RACE" = "1" ]; then
    build_flags+=(-race)
fi
go build "${build_flags[@]}" -o "$workdir/ksimd" ./cmd/ksimd
go build "${build_flags[@]}" -o "$workdir/kbench" ./cmd/kbench

store="$workdir/store"

wait_addr() { # $1: addr file, $2: log file
    for _ in $(seq 150); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "ksimd-swarm: process never bound; log follows" >&2
    cat "$2" >&2
    exit 1
}

# Three backends over one shared store: that is what lets the router
# re-home a session when its backend dies, and what migration leans on when
# a transfer is cut short.
backends=""
for i in 1 2 3; do
    "$workdir/ksimd" -addr 127.0.0.1:0 -store "$store" -max-sessions "$MAXSESS" \
        -addr-file "$workdir/addr-b$i" >"$workdir/backend-$i.log" 2>&1 &
    pids+=($!)
    wait_addr "$workdir/addr-b$i" "$workdir/backend-$i.log"
    backends="$backends${backends:+,}b$i=http://$(cat "$workdir/addr-b$i")"
done

"$workdir/ksimd" -router "$backends" -addr 127.0.0.1:0 \
    -addr-file "$workdir/addr-router" >"$workdir/router.log" 2>&1 &
pids+=($!)
wait_addr "$workdir/addr-router" "$workdir/router.log"
router="http://$(cat "$workdir/addr-router")"

"$workdir/kbench" -swarm "$router" \
    -swarm-sessions "$SESSIONS" -swarm-rate 50 -swarm-steps "$STEPS" \
    -swarm-cycles "$CYCLES" -swarm-forks "$FORKS"

# Clean shutdown: SIGTERM everyone and require exit 0 — the backends flush
# durable sessions, the router drains in-flight proxies.
for pid in "${pids[@]}"; do
    kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
        echo "ksimd-swarm: pid $pid did not shut down cleanly; logs follow" >&2
        tail -n 40 "$workdir"/backend-*.log "$workdir/router.log" >&2
        exit 1
    fi
done
pids=()

echo "ksimd-swarm: fleet smoke OK ($SESSIONS sessions, $FORKS forks/session, 1 migration)"
