#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#	bash flowbench/run.sh --workload panel-full --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache, the
# daemon's store and the span dumps all stay under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout. See flowbench/METRICS.md for the workloads and metrics.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export GOTOOLCHAIN=local

go -C "$root/flowbench" build -o "$out/flowbench" . >&2

# Identify the code measured: the commit when the checkout is a git
# repository, and always a digest of the Go sources and module files.
commit=
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
digest=$(cd "$root" && find go.mod internal cmd flowbench -type f \( -name '*.go' -o -name go.mod \) |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

exec "$out/flowbench" --out "$out" --commit "$commit" --source-digest "$digest" "$@"
