// Double Skip Quantization (DSQ) — the paper's core contribution (§III-C).
//
// M encoder/decoder pairs quantize a d-dim representation into M codeword
// IDs. Two skip connections:
//  1. Residual stacking (Eqn. 2): encoder k sees the residual
//     e_k = f(x) - sum_{j<k} o_j, which forces codebook diversity.
//  2. Codebook chaining (Eqn. 10): C_k = FFN(C_{k-1}) * g_k + P_k, which
//     keeps gradients alive across many stages.
//
// Codeword selection (Eqn. 3) is argmax of negative squared Euclidean
// distance; training uses tempered softmax + the Straight-Through Estimator
// (Eqns. 5-7).
//
// Config toggles reproduce the paper's ablations: codebook_skip=false is the
// "vanilla residual" row of Table IV; residual_skip=false degenerates to
// independent parallel codebooks; straight_through=false trains on the soft
// relaxation only.

#ifndef LIGHTLT_CORE_DSQ_H_
#define LIGHTLT_CORE_DSQ_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace lightlt::core {

/// Hyper-parameters of the DSQ module.
struct DsqConfig {
  size_t dim = 64;            ///< d, dimension of the continuous space
  size_t num_codebooks = 4;   ///< M, encoder/decoder pairs
  size_t num_codewords = 256; ///< K, rows per codebook
  float temperature = 1.0f;   ///< t of the tempered softmax (Eqn. 5)
  bool straight_through = true;  ///< use STE (Eqn. 6) vs pure soft relaxation
  bool residual_skip = true;     ///< skip #1 (Eqn. 2)
  bool codebook_skip = true;     ///< skip #2 (Eqn. 10)
  size_t ffn_hidden = 0;         ///< hidden width of the codebook FFN; 0 = d
  /// Gumbel-softmax sampling (Jang et al., the paper's ref [34]): during
  /// the training forward pass, perturb the selection logits with Gumbel
  /// noise so codeword assignment is sampled rather than argmax'd —
  /// encourages codeword exploration early in training. Inference
  /// (Encode) is always deterministic.
  bool gumbel_noise = false;

  /// Validates ranges (K >= 2, M >= 1, ...).
  Status Validate() const;
};

/// The DSQ quantizer. Owns the main codebooks P_k, the per-stage gates g_k
/// and the (shared) one-hidden-layer FFN of the codebook skip.
class DsqModule : public nn::Module {
 public:
  DsqModule(const DsqConfig& config, Rng& rng);

  /// Differentiable forward pass for training.
  struct ForwardResult {
    Var reconstruction;  ///< o = sum_k o_k (n x d), gradient flows via STE
    /// Hard codeword IDs selected in the forward pass: codes[i][k].
    std::vector<std::vector<uint32_t>> codes;
    /// Per-stage soft assignment entropy (diagnostic, averaged over batch).
    std::vector<float> assignment_entropy;
  };
  /// When `gumbel_noise` is enabled, noise is drawn from `gumbel_rng` if
  /// provided (reproducible per caller), else from a thread-local stream —
  /// concurrent Forward calls never share mutable RNG state.
  ForwardResult Forward(const Var& input, Rng* gumbel_rng = nullptr) const;

  /// Inference-only encoding (no autograd graph): hard argmax per stage on
  /// the residual, exactly Eqns. 2-4. Rows are independent, so they are
  /// encoded kEncodeChunkRows at a time through reused buffers.
  void Encode(const Matrix& input,
              std::vector<std::vector<uint32_t>>* codes) const;
  static constexpr size_t kEncodeChunkRows = 4096;

  /// Reconstructs inputs from hard codes using the effective codebooks.
  Matrix Decode(const std::vector<std::vector<uint32_t>>& codes) const;

  /// Materializes the effective codebooks C_1..C_M of Eqn. 10 as plain
  /// matrices (what an AdcIndex consumes).
  std::vector<Matrix> EffectiveCodebooks() const;

  /// Mean squared reconstruction error of `input` under hard encoding.
  double ReconstructionError(const Matrix& input) const;

  std::vector<Var> Parameters() const override;

  /// Re-draws all DSQ parameters from `rng` (same distributions as the
  /// constructor). Used to give ensemble members distinct quantizer
  /// initializations on top of a shared backbone.
  void ReinitializeParameters(Rng& rng);

  const DsqConfig& config() const { return config_; }

  /// Direct access to the main codebook parameters P_k (for tests and the
  /// permutation experiments of Example 1).
  const std::vector<Var>& main_codebooks() const { return main_codebooks_; }
  const std::vector<Var>& gates() const { return gates_; }

 private:
  /// Builds the chain of effective codebook graph nodes.
  std::vector<Var> BuildCodebookChain() const;

  DsqConfig config_;
  std::vector<Var> main_codebooks_;  // P_k, each K x d
  std::vector<Var> gates_;           // g_k for k >= 2, each 1 x 1
  std::unique_ptr<nn::Ffn> ffn_;     // codebook transform (codebook_skip)
};

}  // namespace lightlt::core

#endif  // LIGHTLT_CORE_DSQ_H_
