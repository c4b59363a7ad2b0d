// Internal seams between the dispatch table (scan_kernels.cc) and the
// per-ISA kernel translation units. Each family compiles everywhere: on a
// foreign architecture its Supported() is false and KernelFor() and Prune()
// are null.

#ifndef LIGHTLT_INDEX_KERNELS_SCAN_ISA_H_
#define LIGHTLT_INDEX_KERNELS_SCAN_ISA_H_

#include "src/index/kernels/scan_kernels.h"

namespace lightlt::index::kernels::detail {

/// Survivor bits of items [first, last) of one block (bit i % 32), by the
/// scalar test: the scalar prune, and the SIMD prunes' partial last block.
inline uint32_t ScalarSurvivorBits(const uint16_t* sums, const float* norms,
                                   size_t first, size_t last, float scale,
                                   float bias_sum, float bound, float worst) {
  uint32_t bits = 0;
  for (size_t i = first; i < last; ++i) {
    if (SurvivesPrune(sums[i], norms[i], scale, bias_sum, bound, worst)) {
      bits |= uint32_t{1} << (i % kBlockItems);
    }
  }
  return bits;
}

bool Avx2Supported();
AccumulateFn Avx2KernelFor(size_t k_padded);
PruneFn Avx2Prune();

bool Avx512Supported();
AccumulateFn Avx512KernelFor(size_t k_padded);
PruneFn Avx512Prune();

bool NeonSupported();
AccumulateFn NeonKernelFor(size_t k_padded);
PruneFn NeonPrune();

}  // namespace lightlt::index::kernels::detail

#endif  // LIGHTLT_INDEX_KERNELS_SCAN_ISA_H_
