#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, e.g. from the repository root:
#
#   bash _perfbench/run.sh --workload resnet50 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans go under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory; the
# go command reads and writes nothing outside it.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/home"

(
	cd "$here"
	env GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
		HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off GOFLAGS= \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0 \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
