// Micro-benchmarks of the search kernels behind Fig. 7: ADC lookup-table
// scoring vs exhaustive float scoring, packed-code access, Hamming scoring,
// and the fast-scan accumulate kernels (DESIGN.md §12) — one row per kernel
// family available on this CPU, registered at runtime, so the scalar
// reference and the SIMD variants land side by side in the JSON for
// tools/bench_smoke.sh --gate to diff.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/codes.h"
#include "src/index/flat_index.h"
#include "src/index/hamming_index.h"
#include "src/index/kernels/scan_kernels.h"
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

// End-to-end Search through the kernel the index selected: quantized scan
// with exact re-scores of the items that could still make the top-k — the
// user-visible number the kernels feed.
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

// Kernel rows depend on the CPU, so they register at runtime rather than
// via the static BENCHMARK macro.
void RegisterScanKernelBenchmarks() {
  const size_t kp = index::kernels::PadCodewords(kCodewords);
  for (const std::string& name : index::kernels::AvailableScanKernels()) {
    const auto kernel = index::kernels::ScanKernelByName(name, kp);
    if (kernel.fn == nullptr) continue;  // family lacks this table width
    benchmark::RegisterBenchmark(("BM_ScanKernel" + name).c_str(),
                                 BM_ScanKernel, kernel)
        ->Arg(1000)
        ->Arg(100000);
  }
}

}  // namespace
}  // namespace lightlt

int main(int argc, char** argv) {
  lightlt::RegisterScanKernelBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
