// Micro-benchmarks of the numeric kernels the training loop and the
// database embed/encode spend their time in: matrix products, the
// fused codeword-similarity kernel, softmax, a full DSQ forward/backward
// step, a 4096-row embed chunk and DSQ encoding.

#include <benchmark/benchmark.h>

#include "src/clustering/kmeans.h"
#include "src/core/dsq.h"
#include "src/core/lightlt_model.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace lightlt {
namespace {

void BM_MatMul(benchmark::State& state) {
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = Matrix::RandomGaussian(n, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    Matrix c = a.MatMul(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// SquaredEuclideanTo's dot pass at DSQ encode's shape: a 4096-row chunk of
// 64-d residuals against one 64-word codebook.
void BM_MatMulTransposed(benchmark::State& state) {
  Rng rng(7);
  const size_t m = 4096, n = 64, k = 64;
  Matrix a = Matrix::RandomGaussian(m, k, rng);
  Matrix b = Matrix::RandomGaussian(n, k, rng);
  for (auto _ : state) {
    Matrix c = a.MatMulTransposed(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_MatMulTransposed)->Name("BM_MatMulTransposed/4096x64x64");

// One EmbedInChunks chunk at the serving model's shape: 4096 rows through
// the 64 -> 128 -> 64 backbone.
void BM_EmbedChunk(benchmark::State& state) {
  core::ModelConfig cfg;
  cfg.input_dim = 64;
  cfg.hidden_dims = {128};
  cfg.embed_dim = 64;
  cfg.num_classes = 25;
  cfg.dsq.num_codebooks = 4;
  cfg.dsq.num_codewords = 64;
  core::LightLtModel model(cfg, 8);
  Rng rng(8);
  Matrix x = Matrix::RandomGaussian(4096, cfg.input_dim, rng);
  for (auto _ : state) {
    Matrix e = model.Embed(x);
    benchmark::DoNotOptimize(e.data());
  }
  state.SetItemsProcessed(state.iterations() * x.rows());
}
BENCHMARK(BM_EmbedChunk);

void BM_SquaredEuclidean(benchmark::State& state) {
  Rng rng(2);
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix x = Matrix::RandomGaussian(n, 64, rng);
  Matrix c = Matrix::RandomGaussian(256, 64, rng);
  for (auto _ : state) {
    Matrix d = x.SquaredEuclideanTo(c);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 256);
}
BENCHMARK(BM_SquaredEuclidean)->Arg(64)->Arg(512);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(3);
  Var x = MakeParam(Matrix::RandomGaussian(256, 256, rng));
  for (auto _ : state) {
    Var y = ops::SoftmaxRows(x, 1.0f);
    benchmark::DoNotOptimize(y->value().data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_DsqForwardBackward(benchmark::State& state) {
  Rng rng(4);
  core::DsqConfig cfg;
  cfg.dim = 64;
  cfg.num_codebooks = 4;
  cfg.num_codewords = 64;
  core::DsqModule dsq(cfg, rng);
  Var input = MakeConstant(Matrix::RandomGaussian(64, cfg.dim, rng));
  for (auto _ : state) {
    dsq.ZeroGrad();
    auto out = dsq.Forward(input);
    Var loss = ops::Sum(ops::Square(out.reconstruction));
    Backward(loss);
    benchmark::DoNotOptimize(loss->value()[0]);
  }
}
BENCHMARK(BM_DsqForwardBackward);

void BM_DsqEncode(benchmark::State& state) {
  Rng rng(5);
  core::DsqConfig cfg;
  cfg.dim = 64;
  cfg.num_codebooks = 4;
  cfg.num_codewords = 64;
  core::DsqModule dsq(cfg, rng);
  Matrix x = Matrix::RandomGaussian(static_cast<size_t>(state.range(0)),
                                    cfg.dim, rng);
  std::vector<std::vector<uint32_t>> codes;
  for (auto _ : state) {
    dsq.Encode(x, &codes);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * x.rows());
}
BENCHMARK(BM_DsqEncode)->Arg(1024)->Arg(8192);

// Args: points, clusters, iterations. The second shape is the IVF coarse
// quantizer's build in bench/e2e's online workloads.
void BM_KMeans(benchmark::State& state) {
  Rng rng(6);
  Matrix points =
      Matrix::RandomGaussian(static_cast<size_t>(state.range(0)), 64, rng);
  for (auto _ : state) {
    clustering::KMeansOptions opts;
    opts.num_clusters = static_cast<size_t>(state.range(1));
    opts.max_iterations = static_cast<int>(state.range(2));
    auto result = clustering::KMeans(points, opts);
    benchmark::DoNotOptimize(result.inertia);
  }
}
BENCHMARK(BM_KMeans)
    ->Args({2000, 64, 10})
    ->Args({20000, 32, 20})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lightlt

BENCHMARK_MAIN();
