#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artifact, cache and trace file
# stays under .bench_build/ in the current directory. The last line of
# standard output is the result JSON; nothing is printed there when the
# build fails (for instance when the module sources are missing).
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS="-buildvcs=false"
export GOPROXY=off
export GOTELEMETRY=off

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod in $root: the benchmark needs the repository sources" >&2
	exit 3
fi

commit="unknown"
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi

go build -C "$root/perfbench" -o "$out/perfbench" . >&2

BENCH_GIT_COMMIT="$commit" exec "$out/perfbench" --out "$out" "$@"
