#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload gateway-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, the benchmark's stores) stays under .bench_build/ in
# the checkout, or under $CARGO_TARGET_DIR when that is set. No network:
# the module has no dependencies outside the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

cd "$root/perfbench"
go build -o "$out/perfbench.$$" .
mv "$out/perfbench.$$" "$out/perfbench"
cd "$root"
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
