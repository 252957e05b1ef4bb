#include "graph/layers.h"

#include "common/thread_pool.h"
#include "nn/init.h"

namespace stgnn::graph {

using autograd::Variable;
namespace ag = stgnn::autograd;

GcnLayer::GcnLayer(int in_features, int out_features, common::Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      "weight", nn::XavierUniform2d(in_features, out_features, rng));
  bias_ = RegisterParameter("bias",
                            tensor::Tensor::Zeros({1, out_features}));
}

Variable GcnLayer::Forward(const Variable& h, const Variable& norm_adj,
                           bool apply_relu) const {
  STGNN_CHECK_EQ(h.value().dim(1), in_features_);
  Variable out = ag::MatMul(ag::MatMul(norm_adj, h), weight_);
  out = ag::Add(out, bias_);
  return apply_relu ? ag::Relu(out) : out;
}

GatLayer::GatLayer(int in_features, int out_features, common::Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      "weight", nn::XavierUniform2d(in_features, out_features, rng));
  a_src_ = RegisterParameter(
      "a_src", nn::XavierUniform({out_features, 1}, out_features, 1, rng));
  a_dst_ = RegisterParameter(
      "a_dst", nn::XavierUniform({out_features, 1}, out_features, 1, rng));
}

Variable GatLayer::MaskedAttention(const Variable& projected,
                                   const Variable& edge_mask) const {
  // e(i, j) = elu(s_i + d_j) where s = P a_src, d = P a_dst; computed as an
  // outer sum via broadcasting: s is [n, 1], d^T is [1, n].
  Variable scores_src = ag::MatMul(projected, a_src_);           // [n, 1]
  Variable scores_dst = ag::Transpose(ag::MatMul(projected, a_dst_));  // [1, n]
  Variable e = ag::Elu(ag::Add(scores_src, scores_dst));  // [n, n]
  // Mask non-edges with a large negative value so softmax ignores them;
  // fused into one parallel pass instead of two temporary tensors.
  tensor::Tensor neg_inf(edge_mask.value().shape());
  {
    const float* mask = edge_mask.value().data().data();
    float* out = neg_inf.mutable_data().data();
    common::ParallelFor(0, neg_inf.size(), 16384,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            out[i] = (mask[i] - 1.0f) * 1e9f;  // 0 on edges
                          }
                        });
  }
  Variable neg_inf_mask = Variable::Constant(std::move(neg_inf));
  return ag::RowSoftmax(ag::Add(e, neg_inf_mask));
}

Variable GatLayer::Forward(const Variable& h,
                           const Variable& edge_mask) const {
  STGNN_CHECK_EQ(h.value().dim(1), in_features_);
  Variable projected = ag::MatMul(h, weight_);  // [n, out]
  return ag::Elu(ag::MatMul(MaskedAttention(projected, edge_mask), projected));
}

tensor::Tensor GatLayer::Attention(const Variable& h,
                                   const Variable& edge_mask) const {
  STGNN_CHECK_EQ(h.value().dim(1), in_features_);
  return MaskedAttention(ag::MatMul(h, weight_), edge_mask).value();
}

}  // namespace stgnn::graph
