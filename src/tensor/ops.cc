#include "src/tensor/ops.h"

#include <cmath>

#include "src/util/check.h"

namespace lightlt::ops {
namespace {

bool AnyRequiresGrad(const std::vector<Var>& parents) {
  for (const auto& p : parents) {
    if (p->requires_grad()) return true;
  }
  return false;
}

/// Creates a result node wired to its parents; attaches `backward` only when
/// a gradient path exists.
Var MakeOp(Matrix value, std::vector<Var> parents, const char* name,
           std::function<void(Node&)> backward) {
  const bool req = AnyRequiresGrad(parents);
  Var out = std::make_shared<Node>(std::move(value), req, name);
  out->set_parents(std::move(parents));
  if (req) out->set_backward(std::move(backward));
  return out;
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  return MakeOp(a->value().Add(b->value()), {a, b}, "add", [](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad());
    n.parents()[1]->AccumulateGrad(n.grad());
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(a->value().Sub(b->value()), {a, b}, "sub", [](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad());
    n.parents()[1]->AccumulateGrad(n.grad().Scale(-1.0f));
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(a->value().Mul(b->value()), {a, b}, "mul", [](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad().Mul(n.parents()[1]->value()));
    n.parents()[1]->AccumulateGrad(n.grad().Mul(n.parents()[0]->value()));
  });
}

Var Scale(const Var& x, float s) {
  return MakeOp(x->value().Scale(s), {x}, "scale", [s](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad().Scale(s));
  });
}

Var AddScalar(const Var& x, float s) {
  Matrix v = x->value();
  for (size_t i = 0; i < v.size(); ++i) v[i] += s;
  return MakeOp(std::move(v), {x}, "add_scalar", [](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad());
  });
}

Var Neg(const Var& x) { return Scale(x, -1.0f); }

Var Square(const Var& x) {
  return MakeOp(x->value().Mul(x->value()), {x}, "square", [](Node& n) {
    Matrix g = n.grad().Mul(n.parents()[0]->value());
    g.ScaleInPlace(2.0f);
    n.parents()[0]->AccumulateGrad(g);
  });
}

Var SqrtElem(const Var& x, float eps) {
  Matrix v = x->value();
  for (size_t i = 0; i < v.size(); ++i) v[i] = std::sqrt(v[i] + eps);
  Matrix forward = v;
  return MakeOp(std::move(v), {x}, "sqrt",
                [forward = std::move(forward)](Node& n) {
                  Matrix g = n.grad();
                  for (size_t i = 0; i < g.size(); ++i) {
                    g[i] *= 0.5f / forward[i];
                  }
                  n.parents()[0]->AccumulateGrad(g);
                });
}

Var MulConstant(const Var& x, const Matrix& w) {
  LIGHTLT_CHECK(x->value().SameShape(w));
  return MakeOp(x->value().Mul(w), {x}, "mul_const", [w](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad().Mul(w));
  });
}

Var Exp(const Var& x) {
  Matrix v = x->value();
  for (size_t i = 0; i < v.size(); ++i) v[i] = std::exp(v[i]);
  Matrix forward = v;
  return MakeOp(std::move(v), {x}, "exp",
                [forward = std::move(forward)](Node& n) {
                  n.parents()[0]->AccumulateGrad(n.grad().Mul(forward));
                });
}

Var Log(const Var& x, float eps) {
  Matrix v = x->value();
  for (size_t i = 0; i < v.size(); ++i) v[i] = std::log(v[i] + eps);
  return MakeOp(std::move(v), {x}, "log", [eps](Node& n) {
    Matrix g = n.grad();
    const Matrix& in = n.parents()[0]->value();
    for (size_t i = 0; i < g.size(); ++i) g[i] /= in[i] + eps;
    n.parents()[0]->AccumulateGrad(g);
  });
}

Var Softplus(const Var& x) {
  Matrix v = x->value();
  Matrix sigmoid(v.rows(), v.cols());
  for (size_t i = 0; i < v.size(); ++i) {
    const float xi = v[i];
    // Stable: softplus(x) = max(x, 0) + log1p(exp(-|x|)).
    v[i] = std::max(xi, 0.0f) + std::log1p(std::exp(-std::fabs(xi)));
    sigmoid[i] = 1.0f / (1.0f + std::exp(-xi));
  }
  return MakeOp(std::move(v), {x}, "softplus",
                [sigmoid = std::move(sigmoid)](Node& n) {
                  n.parents()[0]->AccumulateGrad(n.grad().Mul(sigmoid));
                });
}

Var Abs(const Var& x) {
  Matrix v = x->value();
  for (size_t i = 0; i < v.size(); ++i) v[i] = std::fabs(v[i]);
  return MakeOp(std::move(v), {x}, "abs", [](Node& n) {
    Matrix g = n.grad();
    const Matrix& in = n.parents()[0]->value();
    for (size_t i = 0; i < g.size(); ++i) {
      if (in[i] < 0.0f) {
        g[i] = -g[i];
      } else if (in[i] == 0.0f) {
        g[i] = 0.0f;
      }
    }
    n.parents()[0]->AccumulateGrad(g);
  });
}

Var Relu(const Var& x) {
  Matrix v = x->value();
  for (size_t i = 0; i < v.size(); ++i) v[i] = ReluValue(v[i]);
  return MakeOp(std::move(v), {x}, "relu", [](Node& n) {
    Matrix g = n.grad();
    const Matrix& in = n.parents()[0]->value();
    // g is zeroed (+0) where in <= 0 and kept elsewhere, NaN inputs
    // included, without a branch.
    for (size_t i = 0; i < g.size(); ++i) {
      const uint32_t keep = 0u - static_cast<uint32_t>(!(in[i] <= 0.0f));
      g[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(g[i]) & keep);
    }
    n.parents()[0]->AccumulateGrad(g);
  });
}

Var Tanh(const Var& x) {
  Matrix v = x->value();
  for (size_t i = 0; i < v.size(); ++i) v[i] = std::tanh(v[i]);
  Matrix forward = v;
  return MakeOp(std::move(v), {x}, "tanh",
                [forward = std::move(forward)](Node& n) {
                  Matrix g = n.grad();
                  for (size_t i = 0; i < g.size(); ++i) {
                    g[i] *= 1.0f - forward[i] * forward[i];
                  }
                  n.parents()[0]->AccumulateGrad(g);
                });
}

Var SoftmaxRows(const Var& x, float temperature) {
  LIGHTLT_CHECK_GT(temperature, 0.0f);
  const Matrix& in = x->value();
  Matrix y(in.rows(), in.cols());
  const float inv_t = 1.0f / temperature;
  for (size_t i = 0; i < in.rows(); ++i) {
    const float* r = in.row(i);
    float* o = y.row(i);
    float mx = r[0];
    for (size_t j = 1; j < in.cols(); ++j) mx = std::max(mx, r[j]);
    double denom = 0.0;
    for (size_t j = 0; j < in.cols(); ++j) {
      o[j] = std::exp((r[j] - mx) * inv_t);
      denom += o[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (size_t j = 0; j < in.cols(); ++j) o[j] *= inv;
  }
  Matrix forward = y;
  return MakeOp(std::move(y), {x}, "softmax",
                [forward = std::move(forward), inv_t](Node& n) {
                  // dx_ij = (1/t) * y_ij * (g_ij - sum_k g_ik y_ik)
                  const Matrix& g = n.grad();
                  Matrix dx(g.rows(), g.cols());
                  for (size_t i = 0; i < g.rows(); ++i) {
                    const float* gr = g.row(i);
                    const float* yr = forward.row(i);
                    float* dr = dx.row(i);
                    double dot = 0.0;
                    for (size_t j = 0; j < g.cols(); ++j) dot += gr[j] * yr[j];
                    for (size_t j = 0; j < g.cols(); ++j) {
                      dr[j] = inv_t * yr[j] *
                              (gr[j] - static_cast<float>(dot));
                    }
                  }
                  n.parents()[0]->AccumulateGrad(dx);
                });
}

Var LogSoftmaxRows(const Var& x) {
  const Matrix& in = x->value();
  Matrix y(in.rows(), in.cols());
  Matrix softmax(in.rows(), in.cols());
  for (size_t i = 0; i < in.rows(); ++i) {
    const float* r = in.row(i);
    float* o = y.row(i);
    float* s = softmax.row(i);
    float mx = r[0];
    for (size_t j = 1; j < in.cols(); ++j) mx = std::max(mx, r[j]);
    double denom = 0.0;
    for (size_t j = 0; j < in.cols(); ++j) denom += std::exp(r[j] - mx);
    const float log_denom = static_cast<float>(std::log(denom));
    for (size_t j = 0; j < in.cols(); ++j) {
      o[j] = r[j] - mx - log_denom;
      s[j] = std::exp(o[j]);
    }
  }
  return MakeOp(std::move(y), {x}, "log_softmax",
                [softmax = std::move(softmax)](Node& n) {
                  // dx_ij = g_ij - softmax_ij * sum_k g_ik
                  const Matrix& g = n.grad();
                  Matrix dx(g.rows(), g.cols());
                  for (size_t i = 0; i < g.rows(); ++i) {
                    const float* gr = g.row(i);
                    const float* sr = softmax.row(i);
                    float* dr = dx.row(i);
                    double total = 0.0;
                    for (size_t j = 0; j < g.cols(); ++j) total += gr[j];
                    for (size_t j = 0; j < g.cols(); ++j) {
                      dr[j] = gr[j] - sr[j] * static_cast<float>(total);
                    }
                  }
                  n.parents()[0]->AccumulateGrad(dx);
                });
}

Var MatMul(const Var& a, const Var& b) {
  return MakeOp(a->value().MatMul(b->value()), {a, b}, "matmul", [](Node& n) {
    const Matrix& g = n.grad();
    // dA = g * B^T, dB = A^T * g
    n.parents()[0]->AccumulateGrad(g.MatMulTransposed(n.parents()[1]->value()));
    n.parents()[1]->AccumulateGrad(
        n.parents()[0]->value().TransposedMatMul(g));
  });
}

Var MatMulTransposed(const Var& a, const Var& b) {
  return MakeOp(a->value().MatMulTransposed(b->value()), {a, b},
                "matmul_t", [](Node& n) {
                  const Matrix& g = n.grad();
                  // y = A B^T: dA = g * B, dB = g^T * A
                  n.parents()[0]->AccumulateGrad(
                      g.MatMul(n.parents()[1]->value()));
                  n.parents()[1]->AccumulateGrad(
                      g.TransposedMatMul(n.parents()[0]->value()));
                });
}

Var AddRowBroadcast(const Var& x, const Var& bias) {
  const Matrix& in = x->value();
  const Matrix& b = bias->value();
  LIGHTLT_CHECK_EQ(b.rows(), 1u);
  LIGHTLT_CHECK_EQ(b.cols(), in.cols());
  Matrix v = in;
  for (size_t i = 0; i < v.rows(); ++i) {
    float* r = v.row(i);
    for (size_t j = 0; j < v.cols(); ++j) r[j] += b[j];
  }
  return MakeOp(std::move(v), {x, bias}, "add_row_bcast", [](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad());
    n.parents()[1]->AccumulateGrad(n.grad().ColSums());
  });
}

Var ScaleByScalarVar(const Var& x, const Var& s) {
  LIGHTLT_CHECK_EQ(s->value().size(), 1u);
  const float sv = s->value()[0];
  return MakeOp(x->value().Scale(sv), {x, s}, "scale_var", [sv](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad().Scale(sv));
    double ds = 0.0;
    const Matrix& g = n.grad();
    const Matrix& xv = n.parents()[0]->value();
    for (size_t i = 0; i < g.size(); ++i) ds += g[i] * xv[i];
    n.parents()[1]->AccumulateGrad(Matrix::Scalar(static_cast<float>(ds)));
  });
}

Var Sum(const Var& x) {
  return MakeOp(Matrix::Scalar(x->value().Sum()), {x}, "sum", [](Node& n) {
    const float g = n.grad()[0];
    Matrix dx(n.parents()[0]->value().rows(), n.parents()[0]->value().cols(),
              g);
    n.parents()[0]->AccumulateGrad(dx);
  });
}

Var Mean(const Var& x) {
  const float inv_n = 1.0f / static_cast<float>(x->value().size());
  return MakeOp(Matrix::Scalar(x->value().Sum() * inv_n), {x}, "mean",
                [inv_n](Node& n) {
                  const float g = n.grad()[0] * inv_n;
                  Matrix dx(n.parents()[0]->value().rows(),
                            n.parents()[0]->value().cols(), g);
                  n.parents()[0]->AccumulateGrad(dx);
                });
}

Var RowL2Norm(const Var& x, float eps) {
  const Matrix& in = x->value();
  Matrix v(in.rows(), 1);
  for (size_t i = 0; i < in.rows(); ++i) {
    const float* r = in.row(i);
    double acc = eps;
    for (size_t j = 0; j < in.cols(); ++j) acc += static_cast<double>(r[j]) * r[j];
    v[i] = static_cast<float>(std::sqrt(acc));
  }
  Matrix forward = v;
  return MakeOp(std::move(v), {x}, "row_l2norm",
                [forward = std::move(forward)](Node& n) {
                  // d||x_i|| / dx_ij = x_ij / ||x_i||
                  const Matrix& g = n.grad();
                  const Matrix& in = n.parents()[0]->value();
                  Matrix dx(in.rows(), in.cols());
                  for (size_t i = 0; i < in.rows(); ++i) {
                    const float scale = g[i] / forward[i];
                    const float* r = in.row(i);
                    float* dr = dx.row(i);
                    for (size_t j = 0; j < in.cols(); ++j) {
                      dr[j] = scale * r[j];
                    }
                  }
                  n.parents()[0]->AccumulateGrad(dx);
                });
}

Var NegSquaredEuclidean(const Var& x, const Var& c) {
  Matrix d2 = x->value().SquaredEuclideanTo(c->value());
  d2.ScaleInPlace(-1.0f);
  return MakeOp(std::move(d2), {x, c}, "neg_sq_euclidean", [](Node& n) {
    // s_ij = -||x_i - c_j||^2
    // ds_ij/dx_i = -2 (x_i - c_j);  ds_ij/dc_j = 2 (x_i - c_j)
    const Matrix& g = n.grad();      // n x K
    const Matrix& x = n.parents()[0]->value();  // n x d
    const Matrix& c = n.parents()[1]->value();  // K x d
    // dx = -2 (diag(rowsum(g)) x - g C)
    Matrix row_sums = g.RowSums();   // n x 1
    Matrix dx = g.MatMul(c);         // n x d
    for (size_t i = 0; i < x.rows(); ++i) {
      const float rs = row_sums[i];
      const float* xr = x.row(i);
      float* dr = dx.row(i);
      for (size_t j = 0; j < x.cols(); ++j) {
        dr[j] = -2.0f * (rs * xr[j] - dr[j]);
      }
    }
    n.parents()[0]->AccumulateGrad(dx);
    // dc = 2 (g^T x - diag(colsum(g)) c)
    Matrix col_sums = g.ColSums();   // 1 x K
    Matrix dc = g.TransposedMatMul(x);  // K x d
    for (size_t j = 0; j < c.rows(); ++j) {
      const float cs = col_sums[j];
      const float* cr = c.row(j);
      float* dr = dc.row(j);
      for (size_t k = 0; k < c.cols(); ++k) {
        dr[k] = 2.0f * (dr[k] - cs * cr[k]);
      }
    }
    n.parents()[1]->AccumulateGrad(dc);
  });
}

Var PairwiseL2Distance(const Var& x, const Var& c, float eps) {
  Var neg_sq = NegSquaredEuclidean(x, c);
  return SqrtElem(Neg(neg_sq), eps);
}

Var GatherRows(const Var& x, const std::vector<size_t>& indices) {
  return MakeOp(x->value().GatherRows(indices), {x}, "gather_rows",
                [indices](Node& n) {
                  const Matrix& g = n.grad();
                  Matrix dx(n.parents()[0]->value().rows(),
                            n.parents()[0]->value().cols());
                  for (size_t i = 0; i < indices.size(); ++i) {
                    float* dst = dx.row(indices[i]);
                    const float* src = g.row(i);
                    for (size_t j = 0; j < g.cols(); ++j) dst[j] += src[j];
                  }
                  n.parents()[0]->AccumulateGrad(dx);
                });
}

Var PickPerRow(const Var& x, const std::vector<size_t>& cols) {
  const Matrix& in = x->value();
  LIGHTLT_CHECK_EQ(cols.size(), in.rows());
  Matrix v(in.rows(), 1);
  for (size_t i = 0; i < in.rows(); ++i) {
    LIGHTLT_CHECK_LT(cols[i], in.cols());
    v[i] = in.at(i, cols[i]);
  }
  return MakeOp(std::move(v), {x}, "pick_per_row", [cols](Node& n) {
    const Matrix& g = n.grad();
    Matrix dx(n.parents()[0]->value().rows(),
              n.parents()[0]->value().cols());
    for (size_t i = 0; i < cols.size(); ++i) dx.at(i, cols[i]) = g[i];
    n.parents()[0]->AccumulateGrad(dx);
  });
}

Var StopGradient(const Var& x) {
  return MakeConstant(x->value(), "stop_gradient");
}

Var StraightThrough(const Var& soft, const Matrix& hard) {
  LIGHTLT_CHECK(soft->value().SameShape(hard));
  return MakeOp(hard, {soft}, "straight_through", [](Node& n) {
    n.parents()[0]->AccumulateGrad(n.grad());
  });
}

Matrix OneHot(const std::vector<size_t>& indices, size_t num_classes) {
  Matrix out(indices.size(), num_classes);
  for (size_t i = 0; i < indices.size(); ++i) {
    LIGHTLT_CHECK_LT(indices[i], num_classes);
    out.at(i, indices[i]) = 1.0f;
  }
  return out;
}

}  // namespace lightlt::ops
