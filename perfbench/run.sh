#!/usr/bin/env bash
# Builds the benchmark and flashd from this checkout's source, then runs one
# workload (or the self-test). Run from the repository root:
#
#   bash perfbench/run.sh --workload social-lib --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build outputs, the Go build cache and config (GOPATH, telemetry), scratch
# files and traces all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/flashd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a FLASH checkout (go.mod, cmd/flashd and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
go build -o "$out/flashd" ./cmd/flashd >&2

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --flashd "$out/flashd" --workdir "$out/work" --commit "$commit" "$@"
