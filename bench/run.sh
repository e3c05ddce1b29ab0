#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload train-dataset --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, artifact and spill directories — stays
# under .bench_build/ in the current directory, and no module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/home/go"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
export TMPDIR="$out/tmp"

(cd "$root/bench" && go build -o "$out/seprivbench" .)
exec "$out/seprivbench" "$@"
