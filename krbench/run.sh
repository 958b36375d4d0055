#!/usr/bin/env bash
# Builds the krbench binary from source and runs one benchmark workload.
#
#   bash krbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, journals, span dumps) stays under
# .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$root/.bench_build"
mkdir -p "$work/tmp"

export GOCACHE="$work/gocache"
export GOMODCACHE="$work/gomodcache"
export GOPATH="$work/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"

# The commit stamp is read only from a git checkout rooted here; an
# exported tree reports "unknown".
commit="unknown"
if [ -e "$root/.git" ] && rev="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	commit="$rev"
fi

(cd "$here" && go build -buildvcs=false -o "$work/krbench" .)
exec "$work/krbench" -workdir "$work" -commit "$commit" "$@"
