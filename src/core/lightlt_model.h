// The full LightLT model: backbone f(.), DSQ quantizer, classification head
// and class-prototype bank (Fig. 1 of the paper).

#ifndef LIGHTLT_CORE_LIGHTLT_MODEL_H_
#define LIGHTLT_CORE_LIGHTLT_MODEL_H_

#include <memory>
#include <vector>

#include "src/core/dsq.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/util/status.h"

namespace lightlt::core {

/// Architecture of a LightLT model.
struct ModelConfig {
  size_t input_dim = 64;   ///< dimension of the (pre-extracted) features
  std::vector<size_t> hidden_dims = {128};  ///< backbone hidden widths
  size_t embed_dim = 64;   ///< d, the continuous representation dimension
  size_t num_classes = 100;
  /// Init stddev of the class-prototype bank; prototypes should start
  /// spread at roughly the embedding scale so the center loss does not
  /// contract the representation space.
  float prototype_init_scale = 0.5f;
  DsqConfig dsq;           ///< dsq.dim is overridden with embed_dim

  Status Validate() const;
};

/// Backbone + DSQ + classifier + prototypes. The classifier consumes the
/// *quantized* representation (Eqn. 12), so the codes themselves are
/// discriminative.
class LightLtModel : public nn::Module {
 public:
  /// `seed` initializes the backbone; `head_seed` initializes DSQ,
  /// classifier and prototypes (0 = derive from `seed`). Ensemble members
  /// share `seed` — the stand-in for the shared *pretrained* backbone the
  /// paper's members start from, which is what makes weight averaging
  /// (Eqn. 23) meaningful — while varying `head_seed`.
  explicit LightLtModel(const ModelConfig& config, uint64_t seed,
                        uint64_t head_seed = 0);

  /// Differentiable training-time forward pass.
  struct ForwardOutput {
    Var embedding;   ///< f(x), n x d
    Var quantized;   ///< o, n x d (through the STE)
    Var logits;      ///< classifier(o), n x C
    std::vector<std::vector<uint32_t>> codes;  ///< hard codes
  };
  /// `gumbel_rng` is forwarded to DsqModule::Forward (per-caller sampling
  /// stream for the gumbel_noise option; null = thread-local fallback).
  ForwardOutput Forward(const Matrix& batch, Rng* gumbel_rng = nullptr) const;

  /// Inference: continuous representation f(x) (query side of ADC search).
  /// Tape-free, and bit-equal to Forward(x).embedding.
  Matrix Embed(const Matrix& x) const;

  /// Embed of `rows` rows of x (row-major, input_dim wide) into `out`
  /// (rows x embed_dim), with the hidden activations in `scratch`.
  void EmbedRows(const float* x, size_t rows, float* out,
                 std::vector<float>* scratch) const;

  /// Inference: hard codes for database items (Fig. 3 indexing workflow).
  void EncodeDatabase(const Matrix& x,
                      std::vector<std::vector<uint32_t>>* codes) const;

  /// Effective codebooks C_1..C_M for index construction.
  std::vector<Matrix> Codebooks() const { return dsq_->EffectiveCodebooks(); }

  std::vector<Var> Parameters() const override;

  /// Only the DSQ parameters — the fine-tuning set of the ensemble step
  /// (paper Fig. 2: backbone and classifier frozen).
  std::vector<Var> DsqParameters() const { return dsq_->Parameters(); }

  const ModelConfig& config() const { return config_; }
  const DsqModule& dsq() const { return *dsq_; }
  DsqModule& mutable_dsq() { return *dsq_; }
  const Var& prototypes() const { return prototypes_; }

 private:
  ModelConfig config_;
  std::unique_ptr<nn::MlpBackbone> backbone_;
  std::unique_ptr<DsqModule> dsq_;
  std::unique_ptr<nn::Linear> classifier_;
  Var prototypes_;  // C x d
};

}  // namespace lightlt::core

#endif  // LIGHTLT_CORE_LIGHTLT_MODEL_H_
