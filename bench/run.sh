#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# ignored by git) and runs it with the arguments given. Nothing is read or
# written outside the checkout: the Go build cache and Go's own config
# directory are pointed into .bench_build/ as well.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/mortar-bench"
[ -f "$root/go.mod" ] || { echo "bench: $root is not a checkout of the repository (no go.mod)" >&2; exit 2; }
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
# Rebuild when the binary is missing or any Go source or go.mod is newer.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" .)
fi
exec "$bin" "$@"
