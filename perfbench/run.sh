#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout that holds this
# script, then runs it from the checkout root.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build products, the Go build cache and the span files all stay under
# ${CARGO_TARGET_DIR:-.bench_build} inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
	git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
fi
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" --spans "$out/spans" "$@"
