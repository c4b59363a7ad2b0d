#!/usr/bin/env bash
# Builds bench_e2e from this checkout's sources (once; later runs rebuild
# incrementally) and runs one workload. Build output goes to stderr so the
# JSON summary stays the last line of stdout.
#
#   bash bench/e2e/run.sh --workload online_ivf --seed 7 --seconds 8 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
mkdir -p "$build"

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
(
  flock 9
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target bench_e2e -j "$(nproc)"
) 9>"$build/.lock" 1>&2

exec "$build/bench_e2e" --trace_dir="$build" "$@"
