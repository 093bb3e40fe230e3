#!/usr/bin/env bash
# Builds matchd and the load generator from the checkout this script
# sits in, then runs one benchmark workload:
#
#   bash loadbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries and the run's data directories stay under
# loadbench/.work inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$here/.work"
mkdir -p "$work/bin" "$work/gocache" "$work/gopath" "$work/config/go/telemetry" "$work/tmp"
# With telemetry on, every go command forks a detached sidecar process
# that outlives this script; mode "off" keeps go from starting it.
printf 'off\n' > "$work/config/go/telemetry/mode"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" \
	GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root" && go build -o "$work/bin/matchd" ./cmd/matchd) >&2
(cd "$here" && go build -o "$work/bin/loadbench" .) >&2
exec "$work/bin/loadbench" -matchd "$work/bin/matchd" -work "$work/runs" "$@"
