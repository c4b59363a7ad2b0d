#!/usr/bin/env bash
# Builds the test suite under AddressSanitizer (-DLIGHTLT_SANITIZE=address)
# and runs the persistence robustness suites through ctest: the corruption
# fuzz over every artifact format (truncations, bit flips, failed writes at
# every offset), the checkpoint/resume tests, the index suites whose
# slot and range arithmetic is raw-pointer math over one code array, and
# the dense-product, nearest-centroid (k-means), reconstruction-distance
# (serving re-rank), chunked DSQ encode, ReLU and tape-free embed suites,
# whose SIMD tiles, tails and reused buffers run over exact-size buffers,
# and the re-rank serving suite over the packed and cell-ordered stores.
# Exits nonzero if ASan reports an error or any loader crashes/leaks
# instead of returning Status.
#
# Usage: tools/run_fault_injection.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
source "${repo_root}/tools/ctest_suites.sh"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLIGHTLT_SANITIZE=address
cmake --build "${build_dir}" --target lightlt_tests -j "$(nproc)"

suites=(FaultInjectionTest CheckpointTest CheckpointConfigTest BinaryIoTest
  SerializeTest DataIoTest ScanKernelsTest AdcIndexTest IvfAdcIndexTest
  PackedCodesTest MatrixTest LightLtModelTest KMeansTest DsqModuleTest
  OpsForwardTest OpsGradTest ReconstructionDistancesTest RerankServingTest)
require_suites "${build_dir}" "${suites[@]}"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
ctest --test-dir "${build_dir}" --output-on-failure --no-tests=error \
  -j "$(nproc)" -R "$(suites_regex "${suites[@]}")"

echo "Fault-injection suite passed under AddressSanitizer."
