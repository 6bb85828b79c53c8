#!/usr/bin/env bash
# Builds the benchmark and reapd from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, journals, spans and
# ledgers) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

# Keep the Go build cache, temp files and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/reapd)

exec "$out/bin/perfbench" --reapd "$out/bin/reapd" --out "$out/out" "$@"
