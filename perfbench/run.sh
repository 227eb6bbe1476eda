#!/usr/bin/env bash
# Builds sqlcheck, sqlcheckd and the benchmark driver from source, then runs
# the driver with this script's arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload audit-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the repository root:
# build outputs and the Go caches in .bench_build/, generated apps, stores,
# packs and traces in .bench_work/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/sqlcheck ./cmd/sqlcheckd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
