#!/usr/bin/env bash
# Builds cmd/serverd and the benchmark from this checkout, then runs one
# benchmark pass. Arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload warm-small --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the servers' data directories all
# live under .bench_build (or $CARGO_TARGET_DIR when set), so a run reads
# and writes only inside the checkout. Go telemetry is turned off there
# first: otherwise the go command may launch a detached upload process
# that outlives this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/serverd ]; then
	echo "run.sh: $root holds no repository sources (go.mod, cmd/serverd)" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/run"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go telemetry off
go build -o "$out/serverd" ./cmd/serverd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serverd "$out/serverd" -work "$out/run" "$@"
