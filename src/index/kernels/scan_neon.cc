// NEON fast-scan accumulate and prune kernels for aarch64. vqtbl1q/vqtbl4q
// give 16- and 64-byte table lookups over 16 codes per instruction; two
// passes cover a 32-item block. Stubs on non-ARM targets.

#include "src/index/kernels/scan_isa.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>

namespace lightlt::index::kernels::detail {
namespace {

// K <= 16: single-register table lookup.
void Accumulate16Neon(const uint8_t* blocked, size_t num_blocks, size_t m,
                      size_t k_padded, const uint8_t* table, uint16_t* sums) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocked + b * kBlockItems * m;
    uint16x8_t acc[4] = {vdupq_n_u16(0), vdupq_n_u16(0), vdupq_n_u16(0),
                         vdupq_n_u16(0)};
    for (size_t cb = 0; cb < m; ++cb) {
      const uint8x16_t tbl = vld1q_u8(table + cb * k_padded);
      const uint8_t* codes = block + cb * kBlockItems;
      for (int half = 0; half < 2; ++half) {
        const uint8x16_t vals = vqtbl1q_u8(tbl, vld1q_u8(codes + 16 * half));
        acc[2 * half] = vaddw_u8(acc[2 * half], vget_low_u8(vals));
        acc[2 * half + 1] = vaddw_u8(acc[2 * half + 1], vget_high_u8(vals));
      }
    }
    for (int q = 0; q < 4; ++q) {
      vst1q_u16(sums + b * kBlockItems + 8 * q, acc[q]);
    }
  }
}

// K <= 64: four-register table lookup (vqtbl4q zeroes out-of-range
// indices; codes are < 64 so every lane hits the table).
void Accumulate64Neon(const uint8_t* blocked, size_t num_blocks, size_t m,
                      size_t k_padded, const uint8_t* table, uint16_t* sums) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocked + b * kBlockItems * m;
    uint16x8_t acc[4] = {vdupq_n_u16(0), vdupq_n_u16(0), vdupq_n_u16(0),
                         vdupq_n_u16(0)};
    for (size_t cb = 0; cb < m; ++cb) {
      const uint8_t* row = table + cb * k_padded;
      uint8x16x4_t tbl;
      tbl.val[0] = vld1q_u8(row);
      tbl.val[1] = vld1q_u8(row + 16);
      tbl.val[2] = vld1q_u8(row + 32);
      tbl.val[3] = vld1q_u8(row + 48);
      const uint8_t* codes = block + cb * kBlockItems;
      for (int half = 0; half < 2; ++half) {
        const uint8x16_t vals = vqtbl4q_u8(tbl, vld1q_u8(codes + 16 * half));
        acc[2 * half] = vaddw_u8(acc[2 * half], vget_low_u8(vals));
        acc[2 * half + 1] = vaddw_u8(acc[2 * half + 1], vget_high_u8(vals));
      }
    }
    for (int q = 0; q < 4; ++q) {
      vst1q_u16(sums + b * kBlockItems + 8 * q, acc[q]);
    }
  }
}

// Survivor masks, one 32-item block per iteration, 4 items per compare, in
// ApproxScore's operation order (no FMA contraction in src/index: aarch64
// would otherwise fuse the multiply-adds, here and in the scalar test).
// NEON has no movemask; each lane keeps its own bit and a horizontal add
// packs them. The last, partial block goes to the scalar test item by
// item, so no load reads past `count`.
void PruneNeon(const uint16_t* sums, const float* norms, size_t count,
               float scale, float bias_sum, float bound, float worst,
               uint32_t* masks) {
  const float32x4_t vscale = vdupq_n_f32(scale);
  const float32x4_t vbias = vdupq_n_f32(bias_sum);
  const float32x4_t vtwo = vdupq_n_f32(2.0f);
  const float32x4_t vbound = vdupq_n_f32(bound);
  const float32x4_t vworst = vdupq_n_f32(worst);
  static constexpr uint32_t kLaneBits[4] = {1, 2, 4, 8};
  const uint32x4_t lane_bits = vld1q_u32(kLaneBits);
  const size_t full = count / kBlockItems;
  for (size_t w = 0; w < full; ++w) {
    uint32_t bits = 0;
    for (size_t g = 0; g < kBlockItems; g += 4) {
      const size_t i = w * kBlockItems + g;
      const float32x4_t sum = vcvtq_f32_u32(vmovl_u16(vld1_u16(sums + i)));
      const float32x4_t approx = vsubq_f32(
          vld1q_f32(norms + i),
          vmulq_f32(vtwo, vaddq_f32(vmulq_f32(sum, vscale), vbias)));
      const uint32x4_t pruned =
          vcgtq_f32(vsubq_f32(approx, vbound), vworst);
      bits |= vaddvq_u32(vbicq_u32(lane_bits, pruned)) << g;
    }
    masks[w] = bits;
  }
  if (count % kBlockItems != 0) {
    masks[full] = ScalarSurvivorBits(sums, norms, full * kBlockItems, count,
                                     scale, bias_sum, bound, worst);
  }
}

}  // namespace

bool NeonSupported() { return true; }

PruneFn NeonPrune() { return &PruneNeon; }

AccumulateFn NeonKernelFor(size_t k_padded) {
  if (k_padded == 16) return &Accumulate16Neon;
  if (k_padded == 64) return &Accumulate64Neon;
  return nullptr;  // K > 64: scalar (no cheap 256-entry shuffle on NEON)
}

}  // namespace lightlt::index::kernels::detail

#else  // non-ARM

namespace lightlt::index::kernels::detail {
bool NeonSupported() { return false; }
AccumulateFn NeonKernelFor(size_t) { return nullptr; }
PruneFn NeonPrune() { return nullptr; }
}  // namespace lightlt::index::kernels::detail

#endif
