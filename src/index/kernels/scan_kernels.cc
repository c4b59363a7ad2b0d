#include "src/index/kernels/scan_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/index/kernels/scan_isa.h"

namespace lightlt::index::kernels {

size_t PadCodewords(size_t k) {
  if (k == 0 || k > 256) return 0;
  if (k <= 16) return 16;
  if (k <= 64) return 64;
  return 256;
}

void BuildBlockedCodes(const uint8_t* item_major, size_t n, size_t m,
                       std::vector<uint8_t>* blocked) {
  const size_t blocks = NumBlocks(n);
  blocked->assign(blocks * m * kBlockItems, 0);
  uint8_t* out = blocked->data();
  for (size_t i = 0; i < n; ++i) {
    const size_t block = i / kBlockItems;
    const size_t lane = i % kBlockItems;
    for (size_t cb = 0; cb < m; ++cb) {
      out[(block * m + cb) * kBlockItems + lane] = item_major[i * m + cb];
    }
  }
}

QuantizedLut QuantizeLut(const float* lut, size_t m, size_t k) {
  QuantizedLut q;
  q.m = m;
  q.k_padded = PadCodewords(k);
  if (q.k_padded == 0) return q;
  q.table.assign(m * q.k_padded, 0);

  // Per-codebook bias (the minimum) keeps every codebook's full 8-bit range
  // usable; the scale is shared across codebooks so the integer sums stay
  // directly comparable between items.
  std::vector<float> mins(m);
  float widest = 0.0f;
  for (size_t cb = 0; cb < m; ++cb) {
    const float* row = lut + cb * k;
    float lo = row[0], hi = row[0];
    for (size_t j = 1; j < k; ++j) {
      lo = std::min(lo, row[j]);
      hi = std::max(hi, row[j]);
    }
    mins[cb] = lo;
    widest = std::max(widest, hi - lo);
    q.bias_sum += lo;
  }
  q.scale = widest > 0.0f ? widest / 255.0f : 0.0f;
  if (q.scale > 0.0f) {
    for (size_t cb = 0; cb < m; ++cb) {
      const float* row = lut + cb * k;
      uint8_t* out = q.table.data() + cb * q.k_padded;
      for (size_t j = 0; j < k; ++j) {
        const float stepped = std::round((row[j] - mins[cb]) / q.scale);
        out[j] = static_cast<uint8_t>(
            std::clamp(stepped, 0.0f, 255.0f));
      }
    }
  }
  return q;
}

namespace {

void AccumulateScalar(const uint8_t* blocked, size_t num_blocks, size_t m,
                      size_t k_padded, const uint8_t* table, uint16_t* sums) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocked + b * m * kBlockItems;
    uint16_t* out = sums + b * kBlockItems;
    for (size_t lane = 0; lane < kBlockItems; ++lane) out[lane] = 0;
    for (size_t cb = 0; cb < m; ++cb) {
      const uint8_t* codes = block + cb * kBlockItems;
      const uint8_t* row = table + cb * k_padded;
      for (size_t lane = 0; lane < kBlockItems; ++lane) {
        out[lane] = static_cast<uint16_t>(out[lane] + row[codes[lane]]);
      }
    }
  }
}

struct Family {
  const char* name;
  bool (*supported)();
  AccumulateFn (*kernel_for)(size_t k_padded);
};

bool ScalarSupported() { return true; }
AccumulateFn ScalarKernelFor(size_t k_padded) {
  return k_padded == 0 ? nullptr : &AccumulateScalar;
}

// Preference order for "auto": widest vectors first, scalar last.
constexpr Family kFamilies[] = {
    {"avx512", &detail::Avx512Supported, &detail::Avx512KernelFor},
    {"avx2", &detail::Avx2Supported, &detail::Avx2KernelFor},
    {"neon", &detail::NeonSupported, &detail::NeonKernelFor},
    {"scalar", &ScalarSupported, &ScalarKernelFor},
};

}  // namespace

bool ScanKernelSupported(const std::string& name) {
  for (const Family& f : kFamilies) {
    if (name == f.name) return f.supported();
  }
  return false;
}

ScanKernel ScanKernelByName(const std::string& name, size_t k_padded) {
  for (const Family& f : kFamilies) {
    if (name == f.name && f.supported()) {
      return {f.kernel_for(k_padded), f.name};
    }
  }
  return {};
}

ScanKernel SelectScanKernel(size_t k_padded) {
  for (const Family& f : kFamilies) {
    if (!f.supported()) continue;
    AccumulateFn fn = f.kernel_for(k_padded);
    if (fn != nullptr) return {fn, f.name};
  }
  return {};
}

std::vector<std::string> AvailableScanKernels() {
  std::vector<std::string> out;
  for (const Family& f : kFamilies) {
    if (f.supported()) out.emplace_back(f.name);
  }
  return out;
}

}  // namespace lightlt::index::kernels
