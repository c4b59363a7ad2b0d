#include "src/nn/linear.h"

#include <algorithm>

#include "src/nn/init.h"
#include "src/tensor/dense_product.h"
#include "src/util/check.h"

namespace lightlt::nn {

Linear::Linear(size_t in_features, size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(MakeParam(XavierUniform(in_features, out_features, rng),
                        "linear.weight")),
      bias_(MakeParam(Matrix(1, out_features), "linear.bias")) {}

Var Linear::Forward(const Var& x) const {
  LIGHTLT_CHECK_EQ(x->value().cols(), in_features_);
  return ops::AddRowBroadcast(ops::MatMul(x, weight_), bias_);
}

void Linear::Infer(const float* x, size_t rows, float* out, bool relu) const {
  DenseProduct(ProductLayout::kAB, x, weight_->value().data(), rows,
               out_features_, in_features_, out);
  const float* bias = bias_->value().data();
  for (size_t i = 0; i < rows; ++i) {
    float* r = out + i * out_features_;
    if (relu) {
      for (size_t j = 0; j < out_features_; ++j) r[j] = ops::ReluValue(r[j] + bias[j]);
    } else {
      for (size_t j = 0; j < out_features_; ++j) r[j] += bias[j];
    }
  }
}

Ffn::Ffn(size_t in_features, size_t hidden, size_t out_features, Rng& rng)
    : fc1_(in_features, hidden, rng), fc2_(hidden, out_features, rng) {}

Var Ffn::Forward(const Var& x) const {
  return fc2_.Forward(ops::Relu(fc1_.Forward(x)));
}

std::vector<Var> Ffn::Parameters() const {
  std::vector<Var> params = fc1_.Parameters();
  for (auto& p : fc2_.Parameters()) params.push_back(p);
  return params;
}

MlpBackbone::MlpBackbone(const std::vector<size_t>& dims, Rng& rng) {
  LIGHTLT_CHECK_GE(dims.size(), 2u);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Var MlpBackbone::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = ops::Relu(h);
  }
  return h;
}

void MlpBackbone::Infer(const float* x, size_t rows, float* out,
                        std::vector<float>* scratch) const {
  // Hidden layers alternate between two halves of `scratch`; the output
  // layer writes `out` directly.
  size_t widest = 0;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    widest = std::max(widest, layers_[i].out_features());
  }
  const size_t half = rows * widest;
  const size_t halves = std::min<size_t>(2, layers_.size() - 1);
  if (scratch->size() < halves * half) scratch->resize(halves * half);
  const float* in = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    float* dst = last ? out : scratch->data() + (i % 2) * half;
    layers_[i].Infer(in, rows, dst, /*relu=*/!last);
    in = dst;
  }
}

std::vector<Var> MlpBackbone::Parameters() const {
  std::vector<Var> params;
  for (const auto& layer : layers_) {
    for (auto& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace lightlt::nn
