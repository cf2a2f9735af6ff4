#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, scratch directories and trace files all
# live in .bench_build inside the checkout; nothing is fetched.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/serve here)" >&2
	exit 2
fi
# The official Go distribution installs here; fall back to it when go is
# not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
