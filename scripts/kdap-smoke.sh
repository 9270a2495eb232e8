#!/usr/bin/env bash
# DAP smoke gate: attach, conditional breakpoint, stepBack, reverseContinue,
# trace-query evaluate, and a rule (function) breakpoint with a
# reverseContinue back to its previous hit, against a real ksimd backend
# and a routed fleet.
# The heavy lifting lives in the Go driver; this wrapper exists so the gate
# has a stable, documented entry point.
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/kdap-smoke "$@"
