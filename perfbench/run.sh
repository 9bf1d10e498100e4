#!/usr/bin/env bash
# Builds the benchmark (cmd/benchrun and cmd/benchserver) from the
# checkout's source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and Go's temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a stagedweb checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/modcache" GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/" ./cmd/benchrun ./cmd/benchserver) >&2
exec "$out/bin/benchrun" "$@"
