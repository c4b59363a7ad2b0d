// Fully-connected layers and the small feed-forward blocks used by both the
// backbone and the DSQ codebook-skip transform (paper Eqn. 10).

#ifndef LIGHTLT_NN_LINEAR_H_
#define LIGHTLT_NN_LINEAR_H_

#include <vector>

#include "src/nn/module.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace lightlt::nn {

/// y = x W + b with W (in x out), b (1 x out).
class Linear : public Module {
 public:
  Linear(size_t in_features, size_t out_features, Rng& rng);

  /// Forward pass for a batch x (n x in) -> (n x out).
  Var Forward(const Var& x) const;

  /// Tape-free Forward on `rows` rows of x (row-major, in_features wide)
  /// into `out` (rows x out_features), followed by ReLU when `relu` is set:
  /// the same arithmetic as Forward (then ops::Relu), so the same bits.
  void Infer(const float* x, size_t rows, float* out, bool relu) const;

  std::vector<Var> Parameters() const override { return {weight_, bias_}; }

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }

 private:
  size_t in_features_;
  size_t out_features_;
  Var weight_;
  Var bias_;
};

/// One-hidden-layer feed-forward network with ReLU:
/// y = relu(x W1 + b1) W2 + b2. This is the FFN(.) of paper Eqn. 10.
class Ffn : public Module {
 public:
  Ffn(size_t in_features, size_t hidden, size_t out_features, Rng& rng);

  Var Forward(const Var& x) const;

  std::vector<Var> Parameters() const override;

 private:
  Linear fc1_;
  Linear fc2_;
};

/// The representation backbone f(.): an MLP over pre-extracted features,
/// standing in for the paper's ResNet34/BERT (see DESIGN.md §2). Hidden
/// layers use ReLU; the output layer is linear, emitting the d-dimensional
/// continuous representation that DSQ quantizes.
class MlpBackbone : public Module {
 public:
  /// `dims` = {input_dim, hidden..., output_dim}; needs >= 2 entries.
  MlpBackbone(const std::vector<size_t>& dims, Rng& rng);

  Var Forward(const Var& x) const;

  /// Tape-free Forward on `rows` rows of x into `out` (rows x output_dim),
  /// bit-equal to Forward and building no autograd nodes. Hidden
  /// activations live in `scratch`, which grows once and is reused.
  void Infer(const float* x, size_t rows, float* out,
             std::vector<float>* scratch) const;

  std::vector<Var> Parameters() const override;

  size_t input_dim() const { return layers_.front().in_features(); }
  size_t output_dim() const { return layers_.back().out_features(); }

 private:
  std::vector<Linear> layers_;
};

}  // namespace lightlt::nn

#endif  // LIGHTLT_NN_LINEAR_H_
