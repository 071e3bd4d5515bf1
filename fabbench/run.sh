#!/usr/bin/env bash
# Builds the fabric benchmark from source and runs one workload:
#   bash fabbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The build cache, the binary and all run output stay under .bench_build/
# in the repository root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/fabbench-bin" .) >&2
exec "$out/fabbench-bin" -root "$root" "$@"
