#!/usr/bin/env bash
# Builds the vbench load driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash vbench/run.sh --workload sim-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build
# in the current directory (or $CARGO_TARGET_DIR when it is set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/home GOPATH=$out/home/go
export GOPROXY=off GOTOOLCHAIN=local GOENV=off

(cd "$root/vbench" && go build -o "$out/vbench" .)
exec "$out/vbench" -dir "$out" "$@"
