#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload contended --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache
# and temporary files stay under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
