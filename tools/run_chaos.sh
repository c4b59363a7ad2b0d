#!/usr/bin/env bash
# Builds and runs the serving chaos harness (ctest label `chaos`), the
# cluster harness (label `cluster`) and the wire-transport harness (label
# `net`) under both sanitizers: AddressSanitizer first, then
# ThreadSanitizer. The suites drive every request-lifecycle outcome —
# served / partial / shed / expired / cancelled — with deterministic fault
# injection (ChaosPlan replica kills, flap storms, latency spikes;
# NetFaultPlan refused connects, mid-frame truncation, byte flips, stalls,
# resets), kill and restart real shard servers under load, saturate a
# small pool, send failed IVF searches to the flat fallback, and walk the
# replica health monitor through its state machine. Exits nonzero if
# either sanitizer reports an error, a label selects no test, or any
# lifecycle invariant fails.
#
# Usage: tools/run_chaos.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-asan, build-tsan — shared with the other presets)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
asan_dir="${1:-${repo_root}/build-asan}"
tsan_dir="${2:-${repo_root}/build-tsan}"

run_labelled() {
  local build_dir="$1" sanitize="$2"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLIGHTLT_SANITIZE="${sanitize}"
  cmake --build "${build_dir}" --target lightlt_chaos_tests \
    --target lightlt_cluster_tests --target lightlt_net_tests \
    --target lightlt_fleet_obs_tests --target lightlt_profile_tests \
    -j "$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure --no-tests=error \
    -L 'chaos|cluster|net'
}

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"
# On a lifecycle-invariant failure the suite dumps the full metrics
# registry (MetricsRegistry::RenderText) alongside the assertion output.
export LIGHTLT_CHAOS_DUMP_METRICS=1

run_labelled "${asan_dir}" address
run_labelled "${tsan_dir}" thread

echo "Chaos harness passed under ASan and TSan."
