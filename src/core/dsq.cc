#include "src/core/dsq.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace lightlt::core {
namespace {

/// Fallback sampling stream for the Gumbel-softmax option when the caller
/// does not pass an explicit Rng. One independent stream per thread, so
/// concurrent Forward calls (parallel ensemble training) never race.
Rng& ThreadLocalGumbelRng() {
  thread_local Rng rng(0x9a3b);
  return rng;
}

}  // namespace

Status DsqConfig::Validate() const {
  if (dim == 0) return Status::InvalidArgument("DsqConfig: dim must be > 0");
  if (num_codebooks == 0) {
    return Status::InvalidArgument("DsqConfig: need at least one codebook");
  }
  if (num_codewords < 2) {
    return Status::InvalidArgument("DsqConfig: need at least two codewords");
  }
  if (temperature <= 0.0f) {
    return Status::InvalidArgument("DsqConfig: temperature must be positive");
  }
  return Status::Ok();
}

DsqModule::DsqModule(const DsqConfig& config, Rng& rng) : config_(config) {
  LIGHTLT_CHECK(config.Validate().ok());
  const size_t k = config_.num_codewords;
  const size_t d = config_.dim;

  main_codebooks_.reserve(config_.num_codebooks);
  for (size_t m = 0; m < config_.num_codebooks; ++m) {
    // Codewords start as small Gaussian directions; the first stage carries
    // most of the signal, later stages model residuals.
    main_codebooks_.push_back(MakeParam(
        Matrix::RandomGaussian(k, d, rng, 0.5f), "dsq.P" + std::to_string(m)));
  }

  if (config_.codebook_skip && config_.num_codebooks > 1) {
    const size_t hidden = config_.ffn_hidden == 0 ? d : config_.ffn_hidden;
    ffn_ = std::make_unique<nn::Ffn>(d, hidden, d, rng);
    gates_.reserve(config_.num_codebooks - 1);
    for (size_t m = 1; m < config_.num_codebooks; ++m) {
      // Gates start near zero: each stage begins as its own codebook and
      // learns how much of the transformed predecessor to blend in.
      gates_.push_back(MakeParam(Matrix::Scalar(0.1f),
                                 "dsq.g" + std::to_string(m)));
    }
  }
}

void DsqModule::ReinitializeParameters(Rng& rng) {
  const size_t k = config_.num_codewords;
  const size_t d = config_.dim;
  for (auto& p : main_codebooks_) {
    p->mutable_value() = Matrix::RandomGaussian(k, d, rng, 0.5f);
    p->ZeroGrad();
  }
  for (auto& g : gates_) {
    g->mutable_value() = Matrix::Scalar(0.1f);
    g->ZeroGrad();
  }
  if (ffn_) {
    const size_t hidden = config_.ffn_hidden == 0 ? d : config_.ffn_hidden;
    ffn_ = std::make_unique<nn::Ffn>(d, hidden, d, rng);
  }
}

std::vector<Var> DsqModule::BuildCodebookChain() const {
  std::vector<Var> chain;
  chain.reserve(config_.num_codebooks);
  chain.push_back(main_codebooks_[0]);
  for (size_t m = 1; m < config_.num_codebooks; ++m) {
    if (config_.codebook_skip) {
      // Eqn. 10: C_k = FFN(C_{k-1}) * g_k + P_k.
      Var transformed = ffn_->Forward(chain.back());
      Var gated = ops::ScaleByScalarVar(transformed, gates_[m - 1]);
      chain.push_back(ops::Add(gated, main_codebooks_[m]));
    } else {
      chain.push_back(main_codebooks_[m]);
    }
  }
  return chain;
}

DsqModule::ForwardResult DsqModule::Forward(const Var& input,
                                            Rng* gumbel_rng) const {
  LIGHTLT_CHECK_EQ(input->value().cols(), config_.dim);
  const size_t n = input->value().rows();
  const size_t k = config_.num_codewords;

  const std::vector<Var> codebooks = BuildCodebookChain();

  ForwardResult result;
  result.codes.assign(n, std::vector<uint32_t>(config_.num_codebooks));
  result.assignment_entropy.resize(config_.num_codebooks);

  Var residual = input;
  Var reconstruction;
  for (size_t m = 0; m < config_.num_codebooks; ++m) {
    // Eqn. 3 similarity + Eqn. 5 tempered softmax.
    Var sims = ops::NegSquaredEuclidean(residual, codebooks[m]);
    if (config_.gumbel_noise) {
      // Gumbel-max sampling: adding G_ij = -log(-log U) to the logits and
      // taking the argmax samples from the tempered categorical. The noise
      // is a constant in the graph (reparameterized logits).
      Rng& noise_rng =
          gumbel_rng != nullptr ? *gumbel_rng : ThreadLocalGumbelRng();
      Matrix noise(n, k);
      for (size_t i = 0; i < noise.size(); ++i) {
        double u = noise_rng.NextDouble();
        while (u <= 1e-12) u = noise_rng.NextDouble();
        noise[i] = static_cast<float>(-std::log(-std::log(u))) *
                   config_.temperature;
      }
      sims = ops::Add(sims, MakeConstant(std::move(noise), "gumbel"));
    }
    Var soft = ops::SoftmaxRows(sims, config_.temperature);

    // Hard selection for the forward value (and the exported codes).
    const std::vector<size_t> hard = sims->value().RowArgMax();
    for (size_t i = 0; i < n; ++i) {
      result.codes[i][m] = static_cast<uint32_t>(hard[i]);
    }

    // Diagnostic: average entropy of the soft assignment.
    double entropy = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float* row = soft->value().row(i);
      for (size_t j = 0; j < k; ++j) {
        if (row[j] > 1e-12f) entropy -= row[j] * std::log(row[j]);
      }
    }
    result.assignment_entropy[m] =
        static_cast<float>(entropy / static_cast<double>(n));

    // Eqn. 6: one-hot forward, soft backward.
    Var assignment = config_.straight_through
                         ? ops::StraightThrough(soft, ops::OneHot(hard, k))
                         : soft;
    // Eqn. 7: decode as assignment-weighted codebook rows.
    Var decoded = ops::MatMul(assignment, codebooks[m]);

    reconstruction =
        reconstruction ? ops::Add(reconstruction, decoded) : decoded;
    if (config_.residual_skip && m + 1 < config_.num_codebooks) {
      // Eqn. 2: next encoder sees the residual.
      residual = ops::Sub(residual, decoded);
    }
  }
  result.reconstruction = reconstruction;
  return result;
}

void DsqModule::Encode(const Matrix& input,
                       std::vector<std::vector<uint32_t>>* codes) const {
  LIGHTLT_CHECK_EQ(input.cols(), config_.dim);
  const std::vector<Matrix> codebooks = EffectiveCodebooks();
  const size_t n = input.rows();
  const size_t dim = config_.dim;

  codes->assign(n, std::vector<uint32_t>(config_.num_codebooks));
  // A chunk's residual and distances stay cache-resident and are reused by
  // the next chunk; only the last, shorter chunk reallocates them.
  Matrix residual;
  Matrix d2;
  for (size_t begin = 0; begin < n; begin += kEncodeChunkRows) {
    const size_t rows = std::min(kEncodeChunkRows, n - begin);
    if (residual.rows() != rows) residual = Matrix(rows, dim);
    std::copy(input.row(begin), input.row(begin) + rows * dim,
              residual.data());
    for (size_t m = 0; m < config_.num_codebooks; ++m) {
      residual.SquaredEuclideanTo(codebooks[m], &d2);
      for (size_t i = 0; i < rows; ++i) {
        const float* row = d2.row(i);
        size_t best = 0;
        for (size_t j = 1; j < config_.num_codewords; ++j) {
          if (row[j] < row[best]) best = j;
        }
        (*codes)[begin + i][m] = static_cast<uint32_t>(best);
      }
      if (config_.residual_skip && m + 1 < config_.num_codebooks) {
        for (size_t i = 0; i < rows; ++i) {
          const float* word = codebooks[m].row((*codes)[begin + i][m]);
          float* r = residual.row(i);
          for (size_t j = 0; j < dim; ++j) r[j] -= word[j];
        }
      }
    }
  }
}

Matrix DsqModule::Decode(
    const std::vector<std::vector<uint32_t>>& codes) const {
  const std::vector<Matrix> codebooks = EffectiveCodebooks();
  Matrix out(codes.size(), config_.dim);
  for (size_t i = 0; i < codes.size(); ++i) {
    LIGHTLT_CHECK_EQ(codes[i].size(), config_.num_codebooks);
    float* row = out.row(i);
    for (size_t m = 0; m < config_.num_codebooks; ++m) {
      const float* word = codebooks[m].row(codes[i][m]);
      for (size_t j = 0; j < config_.dim; ++j) row[j] += word[j];
    }
  }
  return out;
}

std::vector<Matrix> DsqModule::EffectiveCodebooks() const {
  const std::vector<Var> chain = BuildCodebookChain();
  std::vector<Matrix> out;
  out.reserve(chain.size());
  for (const auto& c : chain) out.push_back(c->value());
  return out;
}

double DsqModule::ReconstructionError(const Matrix& input) const {
  std::vector<std::vector<uint32_t>> codes;
  Encode(input, &codes);
  const Matrix recon = Decode(codes);
  double err = 0.0;
  for (size_t i = 0; i < input.size(); ++i) {
    const double diff = input[i] - recon[i];
    err += diff * diff;
  }
  return err / static_cast<double>(input.rows());
}

std::vector<Var> DsqModule::Parameters() const {
  std::vector<Var> params = main_codebooks_;
  for (const auto& g : gates_) params.push_back(g);
  if (ffn_) {
    for (auto& p : ffn_->Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace lightlt::core
