// Micro-benchmarks of the search kernels behind Fig. 7: ADC lookup-table
// scoring vs exhaustive float scoring, packed-code access, Hamming scoring,
// and the fast-scan accumulate and prune kernels (DESIGN.md §12), and the
// serving re-rank's reconstruction distances (DESIGN.md §17) — one row per
// kernel family available on this CPU, registered at runtime, so the scalar
// reference and the SIMD variants land side by side in the JSON for
// tools/bench_smoke.sh --gate to diff.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/codes.h"
#include "src/index/flat_index.h"
#include "src/index/hamming_index.h"
#include "src/index/kernels/scan_kernels.h"
#include "src/tensor/dense_product.h"
#include "src/util/rng.h"

namespace lightlt {
namespace {

constexpr size_t kDim = 64;
constexpr size_t kCodebooks = 4;
constexpr size_t kCodewords = 64;

index::AdcIndex MakeAdc(size_t n, Rng& rng) {
  std::vector<Matrix> codebooks;
  for (size_t m = 0; m < kCodebooks; ++m) {
    codebooks.push_back(Matrix::RandomGaussian(kCodewords, kDim, rng));
  }
  std::vector<std::vector<uint32_t>> codes(n,
                                           std::vector<uint32_t>(kCodebooks));
  for (auto& item : codes) {
    for (auto& c : item) {
      c = static_cast<uint32_t>(rng.NextIndex(kCodewords));
    }
  }
  auto built = index::AdcIndex::Build(codebooks, codes);
  return std::move(built).value();
}

void BM_AdcScore(benchmark::State& state) {
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  auto idx = MakeAdc(n, rng);
  Matrix query = Matrix::RandomGaussian(1, kDim, rng);
  std::vector<float> scores;
  for (auto _ : state) {
    idx.ComputeScores(query.data(), &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AdcScore)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FlatScore(benchmark::State& state) {
  Rng rng(2);
  const size_t n = static_cast<size_t>(state.range(0));
  index::FlatIndex idx(Matrix::RandomGaussian(n, kDim, rng));
  Matrix query = Matrix::RandomGaussian(1, kDim, rng);
  std::vector<float> scores;
  for (auto _ : state) {
    idx.ComputeScores(query.data(), &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatScore)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HammingScore(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t bits = 32;
  Matrix raw = Matrix::RandomGaussian(n, bits, rng);
  size_t blocks = 0;
  auto packed = index::PackSignBits(raw, &blocks);
  index::HammingIndex idx(std::move(packed), blocks, bits);
  Matrix qraw = Matrix::RandomGaussian(1, bits, rng);
  size_t qblocks = 0;
  auto qcode = index::PackSignBits(qraw, &qblocks);
  std::vector<float> scores;
  for (auto _ : state) {
    idx.ComputeScores(qcode.data(), &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HammingScore)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PackedCodesRoundTrip(benchmark::State& state) {
  Rng rng(4);
  const size_t n = 4096;
  index::PackedCodes codes(n, kCodebooks, kCodewords);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t m = 0; m < kCodebooks; ++m) {
        codes.Set(i, m, static_cast<uint32_t>((i + m) % kCodewords));
      }
    }
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t m = 0; m < kCodebooks; ++m) sum += codes.Get(i, m);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n * kCodebooks);
}
BENCHMARK(BM_PackedCodesRoundTrip);

void BM_AdcIndexBuild(benchmark::State& state) {
  Rng rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto idx = MakeAdc(n, rng);
    benchmark::DoNotOptimize(idx.num_items());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AdcIndexBuild)->Arg(1000)->Arg(10000);

// One accumulate pass over n items with a pre-quantized LUT — the inner
// loop of the fast-scan Search, isolated per kernel family. Rows are named
// BM_ScanKernel<family>/n; "scalar" is the reference every SIMD family is
// measured against (the >=3x acceptance line of §12).
void BM_ScanKernel(benchmark::State& state,
                   index::kernels::ScanKernel kernel) {
  Rng rng(6);
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = kCodebooks;
  const size_t kp = index::kernels::PadCodewords(kCodewords);
  std::vector<uint8_t> item_major(n * m);
  for (auto& c : item_major) {
    c = static_cast<uint8_t>(rng.NextIndex(kCodewords));
  }
  std::vector<uint8_t> blocked;
  index::kernels::BuildBlockedCodes(item_major.data(), n, m, &blocked);
  std::vector<float> lut(m * kCodewords);
  for (auto& v : lut) v = static_cast<float>(rng.NextGaussian());
  const auto qlut = index::kernels::QuantizeLut(lut.data(), m, kCodewords);
  const size_t blocks = index::kernels::NumBlocks(n);
  std::vector<uint16_t> sums(blocks * index::kernels::kBlockItems);
  for (auto _ : state) {
    kernel.fn(blocked.data(), blocks, m, kp, qlut.table.data(), sums.data());
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// One prune pass over n items' sums and norms: the survivor masks the
// fast-scan Search computes after the accumulate kernel, isolated per
// kernel family (BM_ScanPrune<family>/n). The threshold keeps 0.1% of the
// items, about the share a top-10 scan of 100k items re-scores.
void BM_ScanPrune(benchmark::State& state, index::kernels::PruneFn prune) {
  Rng rng(8);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint16_t> sums(n);
  std::vector<float> norms(n);
  for (size_t i = 0; i < n; ++i) {
    sums[i] = static_cast<uint16_t>(rng.NextIndex(kCodebooks * 255 + 1));
    norms[i] = 10.0f + static_cast<float>(rng.NextGaussian());
  }
  const float scale = 0.01f;
  const float bias_sum = -2.0f;
  const float bound = scale * static_cast<float>(kCodebooks) * 1.001f + 1e-6f;
  std::vector<float> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] =
        index::kernels::ApproxScore(sums[i], norms[i], scale, bias_sum) -
        bound;
  }
  std::nth_element(values.begin(), values.begin() + n / 1000, values.end());
  const float worst = values[n / 1000];
  std::vector<uint32_t> masks(index::kernels::NumBlocks(n));
  for (auto _ : state) {
    prune(sums.data(), norms.data(), n, scale, bias_sum, bound, worst,
          masks.data());
    benchmark::DoNotOptimize(masks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// End-to-end Search through the kernel the index selected: quantized scan
// with exact re-scores of the items that could still make the top-k — the
// user-visible number the kernels feed.
// One query's float lookup tables: a 1 x 64 row against M = 4 codebooks
// of 64 x 64 (256 dense-product dots).
void BM_LutBuild(benchmark::State& state) {
  Rng rng(9);
  auto idx = MakeAdc(1000, rng);
  Matrix query = Matrix::RandomGaussian(1, kDim, rng);
  for (auto _ : state) {
    std::vector<float> lut = idx.BuildLookupTables(query.data());
    benchmark::DoNotOptimize(lut.data());
  }
}
BENCHMARK(BM_LutBuild);

void BM_AdcSearch(benchmark::State& state) {
  Rng rng(7);
  const size_t n = static_cast<size_t>(state.range(0));
  auto idx = MakeAdc(n, rng);
  Matrix query = Matrix::RandomGaussian(1, kDim, rng);
  for (auto _ : state) {
    auto hits = idx.Search(query.data(), 10);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(idx.scan_kernel_name());
}
BENCHMARK(BM_AdcSearch)->Arg(1000)->Arg(10000)->Arg(100000);

// The serving re-rank of a pool of n candidates: exact ‖q − o‖² to each
// candidate's reconstruction at d = 64, M = 4, K = 64 (the bench/e2e IVF
// shape). BM_Rerank runs the served path over a 20k-item index (random
// slots, row pointers gathered per call, the dispatched kernel); the other
// rows take the same pre-gathered codeword rows, so the old loop
// (BM_RerankParentLoop) and each variant (BM_RerankKernel<family>) see
// identical inputs.
void BM_Rerank(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(10);
  const index::AdcIndex idx = MakeAdc(20000, rng);
  const Matrix query = Matrix::RandomGaussian(1, kDim, rng);
  std::vector<index::SearchHit> hits;
  for (size_t i = 0; i < n; ++i) {
    hits.push_back({static_cast<uint32_t>(rng.NextIndex(20000)), 0.0f});
  }
  std::vector<float> out(n);
  for (auto _ : state) {
    idx.ReconstructionDistances(query.data(), hits, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Rerank)->Arg(50);

struct RerankRows {
  explicit RerankRows(size_t n) : words(n * kCodebooks), out(n) {
    Rng rng(11);
    for (size_t m = 0; m < kCodebooks; ++m) {
      codebooks.push_back(Matrix::RandomGaussian(kCodewords, kDim, rng));
    }
    for (size_t i = 0; i < words.size(); ++i) {
      words[i] = codebooks[i % kCodebooks].row(rng.NextIndex(kCodewords));
    }
    query = Matrix::RandomGaussian(1, kDim, rng);
  }
  std::vector<Matrix> codebooks;
  std::vector<const float*> words;
  Matrix query;
  std::vector<float> out;
};

// The loop the re-rank ran before the kernel: one zeroed reconstruction
// Matrix per candidate and one serial sum.
void BM_RerankParentLoop(benchmark::State& state) {
  RerankRows f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (size_t i = 0; i < f.out.size(); ++i) {
      Matrix recon(1, kDim);
      for (size_t cb = 0; cb < kCodebooks; ++cb) {
        const float* word = f.words[i * kCodebooks + cb];
        for (size_t j = 0; j < kDim; ++j) recon[j] += word[j];
      }
      float dist = 0.0f;
      for (size_t j = 0; j < kDim; ++j) {
        const float diff = f.query[j] - recon[j];
        dist += diff * diff;
      }
      f.out[i] = dist;
    }
    benchmark::DoNotOptimize(f.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.out.size());
}
BENCHMARK(BM_RerankParentLoop)->Arg(50);

void BM_RerankKernel(benchmark::State& state,
                     ReconstructionDistancesFn kernel) {
  RerankRows f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    kernel(f.query.data(), f.words.data(), f.out.size(), kCodebooks, kDim,
           f.out.data());
    benchmark::DoNotOptimize(f.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.out.size());
}

// Kernel rows depend on the CPU, so they register at runtime rather than
// via the static BENCHMARK macro.
void RegisterKernelBenchmarks() {
  for (const DenseKernel& kernel : AvailableDenseKernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_RerankKernel") + kernel.name).c_str(),
        BM_RerankKernel, kernel.reconstruction)
        ->Arg(50);
  }
  const size_t kp = index::kernels::PadCodewords(kCodewords);
  for (const std::string& name : index::kernels::AvailableScanKernels()) {
    const auto kernel = index::kernels::ScanKernelByName(name, kp);
    if (kernel.fn != nullptr) {  // null: family lacks this table width
      benchmark::RegisterBenchmark(("BM_ScanKernel" + name).c_str(),
                                   BM_ScanKernel, kernel)
          ->Arg(1000)
          ->Arg(100000);
    }
    benchmark::RegisterBenchmark(("BM_ScanPrune" + name).c_str(),
                                 BM_ScanPrune, kernel.prune)
        ->Arg(100000);
  }
}

}  // namespace
}  // namespace lightlt

int main(int argc, char** argv) {
  lightlt::RegisterKernelBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
