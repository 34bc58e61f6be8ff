#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload trie-read-dram --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the checkout root: the Go build cache, the binary, temporary data
# directories and trace files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
if ! go -C perfbench build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed (the benchmark needs the repository's Go sources beside it)" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
