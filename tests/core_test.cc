#include <cmath>

#include "core/aggregators.h"
#include "core/config.h"
#include "core/flow_convolution.h"
#include "core/graph_generator.h"
#include "core/stgnn_djd.h"
#include "data/city_simulator.h"
#include "data/window.h"
#include "eval/experiment.h"
#include "gradcheck.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace stgnn::core {
namespace {

namespace ag = stgnn::autograd;
using autograd::Variable;
using stgnn::testing::ExpectGradientsClose;
using tensor::Tensor;

const data::FlowDataset& TestFlow() {
  static const data::FlowDataset* flow = [] {
    data::CityConfig config = data::CityConfig::Tiny();
    config.num_days = 16;
    return new data::FlowDataset(
        data::BuildFlowDataset(data::CitySimulator(config).Generate()));
  }();
  return *flow;
}

// Small config usable on the tiny dataset within test time budgets.
StgnnConfig FastConfig() {
  StgnnConfig config;
  config.short_term_slots = 8;
  config.long_term_days = 2;
  config.fcg_layers = 2;
  config.pcg_layers = 2;
  config.attention_heads = 2;
  config.epochs = 2;
  config.batch_size = 16;
  config.max_samples_per_epoch = 48;
  return config;
}

TEST(ConfigTest, VariantNames) {
  StgnnConfig config;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD");
  config.ablation.use_flow_convolution = false;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD/no-fc");
  config = StgnnConfig();
  config.fcg_aggregator = Aggregator::kMean;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD/fcg-mean");
  config = StgnnConfig();
  config.pcg_aggregator = Aggregator::kMax;
  EXPECT_EQ(config.DescribeVariant(), "STGNN-DJD/pcg-max");
}

// --- Flow convolution ---

TEST(FlowConvolutionTest, OutputShapes) {
  common::Rng rng(1);
  const int n = 5;
  FlowConvolution conv(n, 4, 2, &rng);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform({4, n * n}, 0, 1, &rng);
  history.outflow_short = Tensor::RandomUniform({4, n * n}, 0, 1, &rng);
  history.inflow_long = Tensor::RandomUniform({2, n * n}, 0, 1, &rng);
  history.outflow_long = Tensor::RandomUniform({2, n * n}, 0, 1, &rng);
  const auto out = conv.Forward(history);
  EXPECT_EQ(out.node_features.value().shape(), (tensor::Shape{n, n}));
  EXPECT_EQ(out.temporal_inflow.value().shape(), (tensor::Shape{n, n}));
  EXPECT_EQ(out.temporal_outflow.value().shape(), (tensor::Shape{n, n}));
}

TEST(FlowConvolutionTest, TemporalEmbeddingsNonNegativeConvexFusion) {
  // Î is a convex combination of ReLU outputs, hence non-negative.
  common::Rng rng(2);
  const int n = 4;
  FlowConvolution conv(n, 3, 2, &rng);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform({3, n * n}, 0, 2, &rng);
  history.outflow_short = Tensor::RandomUniform({3, n * n}, 0, 2, &rng);
  history.inflow_long = Tensor::RandomUniform({2, n * n}, 0, 2, &rng);
  history.outflow_long = Tensor::RandomUniform({2, n * n}, 0, 2, &rng);
  const auto out = conv.Forward(history);
  for (float v : out.temporal_inflow.value().data()) EXPECT_GE(v, 0.0f);
  for (float v : out.temporal_outflow.value().data()) EXPECT_GE(v, 0.0f);
}

TEST(FlowConvolutionTest, GradientsReachAllParameters) {
  common::Rng rng(3);
  const int n = 3;
  FlowConvolution conv(n, 3, 2, &rng);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform({3, n * n}, 0.1f, 1, &rng);
  history.outflow_short = Tensor::RandomUniform({3, n * n}, 0.1f, 1, &rng);
  history.inflow_long = Tensor::RandomUniform({2, n * n}, 0.1f, 1, &rng);
  history.outflow_long = Tensor::RandomUniform({2, n * n}, 0.1f, 1, &rng);
  const auto out = conv.Forward(history);
  ag::SumAll(ag::Square(out.node_features)).Backward();
  int with_grad = 0;
  for (const auto& p : conv.parameters()) {
    if (tensor::SumAll(tensor::Abs(p.grad())).item() > 0.0f) ++with_grad;
  }
  // All 11 parameter tensors (W1-W7, b1-b4) should receive gradient signal.
  EXPECT_GE(with_grad, 9);  // allow a dead-ReLU parameter or two
}

// --- FCG generation ---

TEST(FcgTest, EdgesFollowFlowRule) {
  const int n = 3;
  Tensor features = Tensor::Ones({n, n});
  Tensor inflow = Tensor::Zeros({n, n});
  Tensor outflow = Tensor::Zeros({n, n});
  inflow.at(0, 1) = 2.0f;   // flow 1 -> 0: edge (0, 1)
  outflow.at(2, 0) = 1.0f;  // outflow 2 -> 0: edge (0, 2)
  const FlowConvolutedGraph graph = BuildFlowConvolutedGraph(
      Variable::Constant(features), Variable::Constant(inflow),
      Variable::Constant(outflow));
  EXPECT_FLOAT_EQ(graph.edge_mask.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(graph.edge_mask.at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(graph.edge_mask.at(1, 2), 0.0f);
  EXPECT_FLOAT_EQ(graph.edge_mask.at(2, 1), 0.0f);
  // Self loops always present.
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(graph.edge_mask.at(i, i), 1.0f);
}

TEST(FcgTest, WeightsRowNormalized) {
  common::Rng rng(4);
  const int n = 4;
  Tensor features = Tensor::RandomUniform({n, n}, 0.1f, 1.0f, &rng);
  Tensor inflow = Tensor::RandomUniform({n, n}, 0.0f, 1.0f, &rng);
  Tensor outflow = Tensor::RandomUniform({n, n}, 0.0f, 1.0f, &rng);
  const FlowConvolutedGraph graph = BuildFlowConvolutedGraph(
      Variable::Constant(features), Variable::Constant(inflow),
      Variable::Constant(outflow));
  for (int i = 0; i < n; ++i) {
    float row_sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(graph.weights.value().at(i, j), 0.0f);
      row_sum += graph.weights.value().at(i, j);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-3);
  }
}

TEST(FcgTest, WeightsDifferentiableWrtFeatures) {
  common::Rng rng(5);
  const int n = 3;
  const Tensor features = Tensor::RandomUniform({n, n}, 0.2f, 1.0f, &rng);
  const Tensor inflow = Tensor::RandomUniform({n, n}, 0.1f, 1.0f, &rng);
  const Tensor outflow = Tensor::RandomUniform({n, n}, 0.1f, 1.0f, &rng);
  ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        const FlowConvolutedGraph graph = BuildFlowConvolutedGraph(
            v[0], Variable::Constant(inflow), Variable::Constant(outflow));
        return ag::SumAll(ag::Square(graph.weights));
      },
      {features});
}

// --- Aggregators ---

TEST(MaskedNeighborMaxTest, ValuesAndGradient) {
  Tensor h({3, 2}, {1, 10, 2, 20, 3, 30});
  Tensor mask({3, 3}, {1, 1, 0,   // node 0 sees {0, 1}
                       0, 1, 0,   // node 1 sees {1}
                       1, 1, 1}); // node 2 sees all
  Variable hv = Variable::Parameter(h);
  Variable out = MaskedNeighborMax(hv, mask);
  EXPECT_TRUE(out.value().AllClose(Tensor({3, 2}, {2, 20, 2, 20, 3, 30})));
  ag::SumAll(out).Backward();
  // Gradients land on argmax rows: node 1 contributes 3 times (from rows
  // 0, 1, 2), node 2 once per feature from row 2.
  EXPECT_TRUE(hv.grad().AllClose(Tensor({3, 2}, {0, 0, 2, 2, 1, 1})));
}

TEST(MaskedNeighborMaxTest, EmptyRowYieldsZero) {
  Tensor h({2, 1}, {5, 6});
  Tensor mask = Tensor::Zeros({2, 2});
  Variable out = MaskedNeighborMax(Variable::Constant(h), mask);
  EXPECT_TRUE(out.value().AllClose(Tensor::Zeros({2, 1})));
}

TEST(AggregatorLayersTest, ShapesPreserved) {
  common::Rng rng(6);
  const int n = 5;
  Variable features =
      Variable::Constant(Tensor::RandomUniform({n, n}, -1, 1, &rng));
  Tensor mask = Tensor::Ones({n, n});
  Variable weights = Variable::Constant(
      graph::RowNormalized(Tensor::RandomUniform({n, n}, 0, 1, &rng)));

  FlowGnnLayer flow_layer(n, &rng);
  EXPECT_EQ(flow_layer.Forward(features, weights).value().shape(),
            (tensor::Shape{n, n}));
  MeanGnnLayer mean_layer(n, &rng);
  EXPECT_EQ(mean_layer.Forward(features, mask).value().shape(),
            (tensor::Shape{n, n}));
  MaxGnnLayer max_layer(n, &rng);
  EXPECT_EQ(max_layer.Forward(features, mask).value().shape(),
            (tensor::Shape{n, n}));
  AttentionGnnLayer attn_layer(n, 3, &rng);
  EXPECT_EQ(attn_layer.Forward(features).value().shape(),
            (tensor::Shape{n, n}));
  EXPECT_EQ(attn_layer.Attention(features).size(), 3u);
}

TEST(AttentionAggregatorTest, AttentionRowsAreDistributions) {
  common::Rng rng(7);
  const int n = 6;
  AttentionGnnLayer layer(n, 2, &rng);
  Variable features =
      Variable::Constant(Tensor::RandomUniform({n, n}, -1, 1, &rng));
  for (const Tensor& attn : layer.Attention(features)) {
    for (int i = 0; i < n; ++i) {
      float total = 0.0f;
      for (int j = 0; j < n; ++j) {
        EXPECT_GE(attn.at(i, j), 0.0f);
        total += attn.at(i, j);
      }
      EXPECT_NEAR(total, 1.0f, 1e-4);
    }
  }
}

TEST(AttentionAggregatorTest, HeadsDiffer) {
  common::Rng rng(8);
  const int n = 6;
  AttentionGnnLayer layer(n, 2, &rng);
  Variable features =
      Variable::Constant(Tensor::RandomUniform({n, n}, -1, 1, &rng));
  const std::vector<Tensor> attn = layer.Attention(features);
  ASSERT_EQ(attn.size(), 2u);
  EXPECT_FALSE(attn[0].AllClose(attn[1], 1e-4f));
}

TEST(FlowAggregatorTest, RespectsWeights) {
  common::Rng rng(9);
  const int n = 3;
  // Weight matrix where node 0 aggregates only from node 2.
  Tensor weights = Tensor::Zeros({n, n});
  weights.at(0, 2) = 1.0f;
  weights.at(1, 1) = 1.0f;
  weights.at(2, 2) = 1.0f;
  FlowGnnLayer layer(n, &rng);
  Tensor features({n, n});
  features.at(2, 0) = 5.0f;  // only node 2 has signal
  Variable out = layer.Forward(Variable::Constant(features),
                               Variable::Constant(weights));
  // Nodes 0 and 2 aggregate node 2's features; node 1 aggregates nothing
  // (its own features are zero), so its pre-activation is zero.
  const Tensor& o = out.value();
  float node1_total = 0.0f;
  for (int j = 0; j < n; ++j) node1_total += std::fabs(o.at(1, j));
  EXPECT_FLOAT_EQ(node1_total, 0.0f);
}

// --- Full model ---

TEST(StgnnModelTest, ForwardShape) {
  common::Rng rng(10);
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  StgnnDjdModel model(flow.num_stations, config, &rng);
  const int t = flow.FirstPredictableSlot(config.short_term_slots,
                                          config.long_term_days);
  const data::StHistory history = data::BuildStHistory(
      flow, t, config.short_term_slots, config.long_term_days, 0.1f);
  Variable out = model.Forward(history, /*training=*/false, nullptr);
  EXPECT_EQ(out.value().shape(), (tensor::Shape{flow.num_stations, 2}));
}

TEST(StgnnModelTest, AblationsChangeParameterCount) {
  common::Rng rng(11);
  const int n = TestFlow().num_stations;
  StgnnConfig full = FastConfig();
  StgnnDjdModel model_full(n, full, &rng);

  StgnnConfig no_fcg = FastConfig();
  no_fcg.ablation.use_fcg = false;
  StgnnDjdModel model_no_fcg(n, no_fcg, &rng);

  StgnnConfig no_pcg = FastConfig();
  no_pcg.ablation.use_pcg = false;
  StgnnDjdModel model_no_pcg(n, no_pcg, &rng);

  EXPECT_GT(model_full.NumParameters(), model_no_fcg.NumParameters());
  EXPECT_GT(model_full.NumParameters(), model_no_pcg.NumParameters());
}

TEST(StgnnModelTest, NoFcUsesLearnedFeatures) {
  common::Rng rng(12);
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  config.ablation.use_flow_convolution = false;
  StgnnDjdModel model(flow.num_stations, config, &rng);
  const int t = flow.FirstPredictableSlot(config.short_term_slots,
                                          config.long_term_days);
  const data::StHistory history = data::BuildStHistory(
      flow, t, config.short_term_slots, config.long_term_days, 0.1f);
  Variable out = model.Forward(history, false, nullptr);
  EXPECT_EQ(out.value().dim(1), 2);
}

TEST(StgnnModelTest, TrainingStepReducesLossOnFixedBatch) {
  common::Rng rng(13);
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  StgnnDjdModel model(flow.num_stations, config, &rng);
  const auto norm =
      data::MinMaxNormalizer::Fit(flow.demand, flow.supply, flow.train_end);
  const int t0 = flow.FirstPredictableSlot(config.short_term_slots,
                                           config.long_term_days);
  const float scale = 1.0f / flow.max_train_flow;
  nn::Adam optimizer(model.parameters(), 0.01f);

  auto batch_loss = [&]() {
    Variable total;
    for (int t = t0; t < t0 + 8; ++t) {
      const data::StHistory history = data::BuildStHistory(
          flow, t, config.short_term_slots, config.long_term_days, scale);
      Variable pred = model.Forward(history, /*training=*/false, nullptr);
      Variable target =
          Variable::Constant(norm.Normalize(data::TargetAt(flow, t)));
      Variable loss = nn::JointDemandSupplyLoss(pred, target);
      total = total.defined() ? ag::Add(total, loss) : loss;
    }
    return total;
  };

  const float initial = batch_loss().value().item();
  for (int step = 0; step < 12; ++step) {
    model.ZeroGrad();
    Variable loss = batch_loss();
    loss.Backward();
    nn::ClipGradNorm(model.parameters(), 5.0f);
    optimizer.Step();
  }
  const float final_loss = batch_loss().value().item();
  EXPECT_LT(final_loss, initial * 0.9f);
}

TEST(StgnnPredictorTest, EndToEndTrainPredict) {
  const auto& flow = TestFlow();
  StgnnDjdPredictor predictor(FastConfig());
  predictor.Train(flow);
  const int t = std::max(flow.val_end, predictor.MinHistorySlots(flow));
  const Tensor pred = predictor.Predict(flow, t);
  ASSERT_EQ(pred.shape(), (tensor::Shape{flow.num_stations, 2}));
  for (float v : pred.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
}

TEST(StgnnPredictorTest, DeterministicGivenSeed) {
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  config.seed = 42;
  StgnnDjdPredictor a(config);
  StgnnDjdPredictor b(config);
  a.Train(flow);
  b.Train(flow);
  const int t = std::max(flow.val_end, a.MinHistorySlots(flow));
  EXPECT_TRUE(a.Predict(flow, t).AllClose(b.Predict(flow, t), 1e-5f));
}

TEST(StgnnPredictorTest, AttentionExtractionForCaseStudy) {
  const auto& flow = TestFlow();
  StgnnConfig config = FastConfig();
  StgnnDjdPredictor predictor(config);
  predictor.Train(flow);
  const int t = std::max(flow.val_end, predictor.MinHistorySlots(flow));
  const auto attention = predictor.PcgAttentionAt(flow, t);
  ASSERT_EQ(attention.size(),
            static_cast<size_t>(config.attention_heads));
  for (const Tensor& head : attention) {
    ASSERT_EQ(head.shape(),
              (tensor::Shape{flow.num_stations, flow.num_stations}));
  }
  // Attention is time-varying: a different slot gives different scores.
  const auto attention2 = predictor.PcgAttentionAt(flow, t + 5);
  EXPECT_FALSE(attention[0].AllClose(attention2[0], 1e-6f));
}

TEST(StgnnPredictorTest, AllVariantsTrain) {
  const auto& flow = TestFlow();
  std::vector<StgnnConfig> variants;
  {
    StgnnConfig c = FastConfig();
    c.ablation.use_flow_convolution = false;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.ablation.use_fcg = false;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.ablation.use_pcg = false;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.fcg_aggregator = Aggregator::kMean;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.fcg_aggregator = Aggregator::kMax;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.pcg_aggregator = Aggregator::kMean;
    variants.push_back(c);
  }
  {
    StgnnConfig c = FastConfig();
    c.pcg_aggregator = Aggregator::kMax;
    variants.push_back(c);
  }
  for (StgnnConfig& config : variants) {
    config.epochs = 1;
    config.max_samples_per_epoch = 16;
    StgnnDjdPredictor predictor(config);
    predictor.Train(flow);
    const int t = std::max(flow.val_end, predictor.MinHistorySlots(flow));
    const Tensor pred = predictor.Predict(flow, t);
    for (float v : pred.data()) {
      EXPECT_TRUE(std::isfinite(v)) << config.DescribeVariant();
    }
  }
}

}  // namespace
}  // namespace stgnn::core
