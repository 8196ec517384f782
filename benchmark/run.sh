#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the binary, the Go build cache, Go's temporary files
# and its per-user state all live under .bench_build at the checkout's root.
# Arguments are passed through to the benchmark (see main.go).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
# The commit is recorded with every result; outside a git checkout it is
# "unknown" (and Go's own VCS stamping, which fails there, stays off).
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/crackbench" .)
cd "$root"
exec "$build/crackbench" "$@"
