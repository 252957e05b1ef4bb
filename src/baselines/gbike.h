#ifndef STGNN_BASELINES_GBIKE_H_
#define STGNN_BASELINES_GBIKE_H_

#include "baselines/neural_base.h"
#include "nn/linear.h"

namespace stgnn::baselines {

// GBike baseline (He & Shin, WWW'20): spatial-temporal graph attention with
// a *predefined distance prior*. Attention over the k-nearest-neighbour
// graph is the product of a learned coefficient and a fixed Gaussian
// distance kernel, so closer stations always receive more weight — the
// locality assumption the paper's case study (Fig. 10) contrasts against.
class GBike : public NeuralPredictorBase {
 public:
  explicit GBike(NeuralTrainOptions options = NeuralTrainOptions(),
                 int recent_window = 8, int daily_window = 7, int hidden = 48,
                 int neighbors = 10, double kernel_sigma = 1.5);

  std::string name() const override { return "GBike"; }
  int MinHistorySlots(const data::FlowDataset& flow) const override;

  // First-layer attention that Predict(flow, t) computes (the case-study
  // bench's Fig. 10 "existing approach" heat map). Rows: target station;
  // cols: source station.
  tensor::Tensor FirstLayerAttentionAt(const data::FlowDataset& flow,
                                       int t) const;

 protected:
  void BuildModel(const data::FlowDataset& flow, common::Rng* rng) override;
  autograd::Variable ForwardSlot(const data::FlowDataset& flow, int t,
                                 bool training) override;
  std::vector<autograd::Variable> Parameters() const override;

 private:
  // Row-softmax attention over the projected features P = h W.
  autograd::Variable AttentionWeights(const autograd::Variable& projected,
                                      const autograd::Variable& a_src,
                                      const autograd::Variable& a_dst) const;
  autograd::Variable AttentionLayer(const autograd::Variable& h,
                                    const autograd::Variable& weight,
                                    const autograd::Variable& a_src,
                                    const autograd::Variable& a_dst) const;

  int recent_window_;
  int daily_window_;
  int hidden_;
  int neighbors_;
  double kernel_sigma_;
  tensor::Tensor distance_prior_;  // log Gaussian kernel, -inf off-graph
  autograd::Variable w1_, a1_src_, a1_dst_;
  autograd::Variable w2_, a2_src_, a2_dst_;
  std::unique_ptr<nn::Linear> head_;
};

}  // namespace stgnn::baselines

#endif  // STGNN_BASELINES_GBIKE_H_
