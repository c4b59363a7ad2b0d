#include "src/core/lightlt_model.h"

#include "src/util/check.h"

namespace lightlt::core {

Status ModelConfig::Validate() const {
  if (input_dim == 0 || embed_dim == 0) {
    return Status::InvalidArgument("ModelConfig: zero dimension");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("ModelConfig: need at least two classes");
  }
  DsqConfig adjusted = dsq;
  adjusted.dim = embed_dim;
  return adjusted.Validate();
}

LightLtModel::LightLtModel(const ModelConfig& config, uint64_t seed,
                           uint64_t head_seed)
    : config_(config) {
  LIGHTLT_CHECK(config.Validate().ok());
  config_.dsq.dim = config_.embed_dim;

  Rng backbone_rng(seed);
  std::vector<size_t> dims;
  dims.push_back(config_.input_dim);
  for (size_t h : config_.hidden_dims) dims.push_back(h);
  dims.push_back(config_.embed_dim);
  backbone_ = std::make_unique<nn::MlpBackbone>(dims, backbone_rng);

  Rng head_rng(head_seed != 0 ? head_seed : backbone_rng.NextUint64());
  dsq_ = std::make_unique<DsqModule>(config_.dsq, head_rng);
  classifier_ = std::make_unique<nn::Linear>(config_.embed_dim,
                                             config_.num_classes, head_rng);
  prototypes_ = MakeParam(
      Matrix::RandomGaussian(config_.num_classes, config_.embed_dim, head_rng,
                             config_.prototype_init_scale),
      "prototypes");
}

LightLtModel::ForwardOutput LightLtModel::Forward(const Matrix& batch,
                                                  Rng* gumbel_rng) const {
  LIGHTLT_CHECK_EQ(batch.cols(), config_.input_dim);
  ForwardOutput out;
  Var input = MakeConstant(batch, "batch");
  out.embedding = backbone_->Forward(input);
  auto dsq_out = dsq_->Forward(out.embedding, gumbel_rng);
  out.quantized = dsq_out.reconstruction;
  out.codes = std::move(dsq_out.codes);
  out.logits = classifier_->Forward(out.quantized);
  return out;
}

Matrix LightLtModel::Embed(const Matrix& x) const {
  LIGHTLT_CHECK_EQ(x.cols(), config_.input_dim);
  Matrix out(x.rows(), config_.embed_dim);
  std::vector<float> scratch;
  EmbedRows(x.data(), x.rows(), out.data(), &scratch);
  return out;
}

void LightLtModel::EmbedRows(const float* x, size_t rows, float* out,
                             std::vector<float>* scratch) const {
  backbone_->Infer(x, rows, out, scratch);
}

void LightLtModel::EncodeDatabase(
    const Matrix& x, std::vector<std::vector<uint32_t>>* codes) const {
  dsq_->Encode(Embed(x), codes);
}

std::vector<Var> LightLtModel::Parameters() const {
  std::vector<Var> params = backbone_->Parameters();
  for (auto& p : dsq_->Parameters()) params.push_back(p);
  for (auto& p : classifier_->Parameters()) params.push_back(p);
  params.push_back(prototypes_);
  return params;
}

}  // namespace lightlt::core
