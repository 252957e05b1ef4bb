#include "baselines/gbike.h"

#include <cmath>

#include "baselines/window_features.h"
#include "graph/graph.h"
#include "nn/init.h"

namespace stgnn::baselines {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

GBike::GBike(NeuralTrainOptions options, int recent_window, int daily_window,
             int hidden, int neighbors, double kernel_sigma)
    : NeuralPredictorBase(options),
      recent_window_(recent_window),
      daily_window_(daily_window),
      hidden_(hidden),
      neighbors_(neighbors),
      kernel_sigma_(kernel_sigma) {}

int GBike::MinHistorySlots(const data::FlowDataset& flow) const {
  return flow.FirstPredictableSlot(recent_window_, daily_window_);
}

void GBike::BuildModel(const data::FlowDataset& flow, common::Rng* rng) {
  const int n = flow.num_stations;
  std::vector<double> lat;
  std::vector<double> lon;
  for (const auto& s : flow.stations) {
    lat.push_back(s.lat);
    lon.push_back(s.lon);
  }
  const Tensor dist = graph::HaversineDistanceMatrix(lat, lon);
  const graph::Graph knn =
      graph::KnnGraph(dist, std::min(neighbors_, n - 1), kernel_sigma_);

  // Predefined distance prior: log of the Gaussian kernel on graph edges
  // (plus self-loops), -1e9 elsewhere so softmax stays on the k-NN graph.
  distance_prior_ = Tensor({n, n});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) {
        distance_prior_.at(i, j) = 0.0f;
      } else if (knn.weights().at(i, j) > 0.0f) {
        distance_prior_.at(i, j) = std::log(knn.weights().at(i, j));
      } else {
        distance_prior_.at(i, j) = -1e9f;
      }
    }
  }

  const int input = WindowFeatureDim(recent_window_, daily_window_);
  w1_ = Variable::Parameter(nn::XavierUniform2d(input, hidden_, rng));
  a1_src_ = Variable::Parameter(nn::XavierUniform({hidden_, 1}, hidden_, 1, rng));
  a1_dst_ = Variable::Parameter(nn::XavierUniform({hidden_, 1}, hidden_, 1, rng));
  w2_ = Variable::Parameter(nn::XavierUniform2d(hidden_, hidden_ / 2, rng));
  a2_src_ = Variable::Parameter(
      nn::XavierUniform({hidden_ / 2, 1}, hidden_ / 2, 1, rng));
  a2_dst_ = Variable::Parameter(
      nn::XavierUniform({hidden_ / 2, 1}, hidden_ / 2, 1, rng));
  head_ = std::make_unique<nn::Linear>(hidden_ / 2, 2, rng);
}

Variable GBike::AttentionWeights(const Variable& projected,
                                 const Variable& a_src,
                                 const Variable& a_dst) const {
  Variable src = ag::MatMul(projected, a_src);
  Variable dst = ag::Transpose(ag::MatMul(projected, a_dst));
  // Learned coefficient plus the fixed distance prior (log-space product).
  Variable e = ag::Add(ag::Elu(ag::Add(src, dst)),
                       Variable::Constant(distance_prior_));
  return ag::RowSoftmax(e);
}

Variable GBike::AttentionLayer(const Variable& h, const Variable& weight,
                               const Variable& a_src,
                               const Variable& a_dst) const {
  Variable projected = ag::MatMul(h, weight);
  return ag::Elu(
      ag::MatMul(AttentionWeights(projected, a_src, a_dst), projected));
}

Variable GBike::ForwardSlot(const data::FlowDataset& flow, int t,
                            bool training) {
  (void)training;
  const Tensor features = BuildWindowFeatures(flow, t, recent_window_,
                                              daily_window_, normalizer());
  Variable h =
      AttentionLayer(Variable::Constant(features), w1_, a1_src_, a1_dst_);
  h = AttentionLayer(h, w2_, a2_src_, a2_dst_);
  return head_->Forward(h);
}

Tensor GBike::FirstLayerAttentionAt(const data::FlowDataset& flow,
                                    int t) const {
  STGNN_CHECK_GE(t, MinHistorySlots(flow));
  const Tensor features = BuildWindowFeatures(flow, t, recent_window_,
                                              daily_window_, normalizer());
  return AttentionWeights(ag::MatMul(Variable::Constant(features), w1_),
                          a1_src_, a1_dst_)
      .value();
}

std::vector<Variable> GBike::Parameters() const {
  std::vector<Variable> params = {w1_, a1_src_, a1_dst_,
                                  w2_, a2_src_, a2_dst_};
  for (const auto& p : head_->parameters()) params.push_back(p);
  return params;
}

}  // namespace stgnn::baselines
