#!/usr/bin/env bash
# Builds the image-build benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash _imagebench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/_imagebench" ]; then
	echo "imagebench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go -C "$root/_imagebench" build -trimpath -o "$out/imagebench" . >&2
exec "$out/imagebench" --workdir "$out/work" "$@"
