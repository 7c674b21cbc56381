#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it:
#
#   bash e2ebench/run.sh --workload rank-knn --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's spans all stay under
# .bench_build at the checkout root. Without the repository's sources next
# to this directory the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off XDG_CONFIG_HOME="$out/config"
commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" --commit "$commit" "$@"
