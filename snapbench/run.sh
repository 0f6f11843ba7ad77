#!/usr/bin/env bash
# Builds snapbench from this checkout and runs it with the given arguments:
#   bash snapbench/run.sh --workload sim-svm60 --seed 1 --seconds 20 --trace 0
# Run it from the checkout root. The build, the Go caches and Go's own
# config all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/snapbench" && go build -o "$out/snapbench" .) >&2
exec "$out/snapbench" "$@"
