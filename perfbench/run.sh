#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives (teasrvd, teaworker) from
# the checkout's sources, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything it writes stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), the Go build
# cache included.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
bin=$build/perfbench-bin

mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$bin"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# No network, no toolchain download, no user-level Go settings.
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOPROXY=off

# Rebuild only when a source file changed since the last build.
digest=$(cd "$root" && find . -path ./.git -prune -o -path "./${build#"$root"/}" -prune -o \
	\( -name '*.go' -o -name go.mod -o -name '*.sha256' \) -type f -print | LC_ALL=C sort |
	xargs sha256sum | sha256sum | cut -c1-16)
if [ ! -x "$bin/perfbench" ] || [ "$(cat "$bin/stamp" 2>/dev/null)" != "$digest" ]; then
	(cd "$here" && go build -o "$bin/" . teasim/cmd/teasrvd teasim/cmd/teaworker) >&2
	echo "$digest" >"$bin/stamp"
fi

export PERFBENCH_SOURCE=$digest PERFBENCH_WORKDIR=$build
# Not exec: the benchmark's own rusage must not carry the compiler's.
"$bin/perfbench" "$@"
