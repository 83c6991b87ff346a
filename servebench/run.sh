#!/usr/bin/env bash
# Builds attrserve, attrrouter and the servebench program from this
# checkout, then runs one measurement. Run from the repository root:
#
#   bash servebench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout, the Go build cache included.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/attrserve || ! -d cmd/attrrouter ]]; then
	echo "servebench: $root holds no gptattr checkout to build" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/" ./cmd/attrserve ./cmd/attrrouter >&2
(cd servebench && go build -o "$out/bin/servebench" .) >&2
exec "$out/bin/servebench" -bin "$out/bin" -work "$out/servebench" "$@"
