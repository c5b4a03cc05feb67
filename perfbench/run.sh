#!/usr/bin/env bash
# Builds dcta-server, dcta-router and the benchmark program from the checkout
# it is started in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload dcta-rw --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every build product, Go cache entry, log
# and trace file goes under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dcta-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/dcta-server and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOENV=off GOPROXY=off GOSUMDB=off GOFLAGS=
go build -o "$out/bin/" ./cmd/dcta-server ./cmd/dcta-router
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
