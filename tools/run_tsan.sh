#!/usr/bin/env bash
# Builds the test suite under ThreadSanitizer (-DLIGHTLT_SANITIZE=thread)
# and runs the concurrency-sensitive tests through ctest. Exits nonzero if
# TSan reports a race (halt_on_error) or any test fails.
#
# Usage: tools/run_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"
source "${repo_root}/tools/ctest_suites.sh"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLIGHTLT_SANITIZE=thread
cmake --build "${build_dir}" --target lightlt_tests -j "$(nproc)"
cmake --build "${build_dir}" --target lightlt_chaos_tests -j "$(nproc)"
cmake --build "${build_dir}" --target lightlt_cluster_tests -j "$(nproc)"
cmake --build "${build_dir}" --target lightlt_obs_tests -j "$(nproc)"
cmake --build "${build_dir}" --target lightlt_quality_obs_tests -j "$(nproc)"
cmake --build "${build_dir}" --target lightlt_net_tests -j "$(nproc)"
cmake --build "${build_dir}" --target lightlt_fleet_obs_tests -j "$(nproc)"
cmake --build "${build_dir}" --target lightlt_profile_tests -j "$(nproc)"

# Concurrency-sensitive suites: the TaskGroup/ParallelFor semantics tests,
# the shared-pool serving stress, eval determinism, parallel gumbel Forward,
# the baseline threadpool unit tests, the serving chaos harness
# (request-lifecycle races: admission, IVF fallback, deadline-cut batches),
# the observability suite (sharded counters/histograms under ParallelFor —
# the scan hot path's relaxed-atomics-only claim is checked here), the
# online-quality suite (shadow verification tasks racing batch serving),
# the cluster suite (scatter-gather failover racing the health monitor and
# its probe accounting), the net suite (real server threads killed and
# restarted under a multi-threaded query storm, drain racing in-flight
# handlers, connection-pool churn), the fleet observability suite (a
# background metrics poller racing server handler threads and concurrent
# View() readers, stitched traces crossing the client/server thread
# boundary), and the profiling suite (the sampler thread walking phase
# stacks that request threads mutate lock-free, plus per-request cost
# vectors racing the segmented counters under ParallelFor). Every suite
# must list at least one test, or the script fails before running any.
suites=(TaskGroupTest ParallelForTest ConcurrencyIntegrationTest
  ThreadPoolTest ChaosServingTest ChaosHarnessTest ClusterServingTest
  ReplicaHealthTest NetServingTest FleetObsTest 'Obs[A-Za-z]*Test'
  QualityObsTest ShadowServingTest ScanKernelsTest)
require_suites "${build_dir}" "${suites[@]}"
export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"
ctest --test-dir "${build_dir}" --output-on-failure --no-tests=error \
  -j "$(nproc)" -R "$(suites_regex "${suites[@]}")"

echo "TSan concurrency suite passed with zero reported races."
