#include <cmath>

#include "baselines/arima.h"
#include "baselines/astgcn.h"
#include "baselines/gbike.h"
#include "baselines/gbrt.h"
#include "baselines/gcnn.h"
#include "baselines/ha.h"
#include "baselines/mgnn.h"
#include "baselines/mlp_model.h"
#include "baselines/recurrent_models.h"
#include "baselines/stsgcn.h"
#include "baselines/window_features.h"
#include "data/city_simulator.h"
#include "data/window.h"
#include "eval/experiment.h"
#include "gtest/gtest.h"

namespace stgnn::baselines {
namespace {

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

NeuralTrainOptions FastOptions() {
  NeuralTrainOptions options;
  options.epochs = 2;
  options.max_samples_per_epoch = 48;
  options.batch_size = 16;
  return options;
}

// --- HA ---

TEST(HaTest, PredictsTrainingMeanOfSlot) {
  const auto& flow = TestFlow();
  HistoricalAverage ha;
  ha.Train(flow);
  const int slot_of_day = 32;
  // Manual weekday mean of demand at station 0, slot 32.
  double sum = 0.0;
  int count = 0;
  for (int t = slot_of_day; t < flow.train_end; t += flow.slots_per_day) {
    const int day = t / flow.slots_per_day;
    if (day % 7 >= 5) continue;
    sum += flow.demand.at(t, 0);
    ++count;
  }
  // Find a weekday test slot with this slot-of-day.
  int test_slot = -1;
  for (int t = flow.val_end; t < flow.num_slots; ++t) {
    if (flow.SlotOfDay(t) == slot_of_day && (t / flow.slots_per_day) % 7 < 5) {
      test_slot = t;
      break;
    }
  }
  ASSERT_GE(test_slot, 0);
  const Tensor pred = ha.Predict(flow, test_slot);
  EXPECT_NEAR(pred.at(0, 0), sum / count, 1e-4);
}

TEST(HaTest, BeatsNothingButIsFinite) {
  const auto& flow = TestFlow();
  HistoricalAverage ha;
  ha.Train(flow);
  const eval::Metrics m =
      eval::EvaluateOnTestSplit(&ha, flow, eval::EvalWindow{});
  EXPECT_GT(m.count, 0);
  EXPECT_TRUE(std::isfinite(m.rmse));
  EXPECT_GE(m.rmse, m.mae);
}

// --- ARIMA ---

TEST(RidgeTest, RecoversLinearModel) {
  // y = 3 x0 - 2 x1 + 1 (with intercept column).
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  common::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-1, 1);
    const double b = rng.Uniform(-1, 1);
    x.push_back({a, b, 1.0});
    y.push_back(3 * a - 2 * b + 1);
  }
  const std::vector<double> w = RidgeLeastSquares(x, y, 1e-6);
  EXPECT_NEAR(w[0], 3.0, 1e-3);
  EXPECT_NEAR(w[1], -2.0, 1e-3);
  EXPECT_NEAR(w[2], 1.0, 1e-3);
}

TEST(ArimaTest, PerfectOnLinearTrend) {
  // Construct a dataset whose demand is a pure linear ramp: the differenced
  // series is constant, so ARIMA(p,1,0) forecasts exactly.
  data::FlowDataset flow;
  flow.city_name = "synthetic";
  flow.num_stations = 1;
  flow.slots_per_day = 96;
  flow.num_slots = 400;
  flow.train_end = 300;
  flow.val_end = 320;
  flow.demand = Tensor({400, 1});
  flow.supply = Tensor({400, 1});
  for (int t = 0; t < 400; ++t) {
    flow.demand.at(t, 0) = 2.0f * t;
    flow.supply.at(t, 0) = 100.0f;  // constant
  }
  Arima arima(12);
  arima.Train(flow);
  const Tensor pred = arima.Predict(flow, 350);
  EXPECT_NEAR(pred.at(0, 0), 700.0f, 1.0f);
  EXPECT_NEAR(pred.at(0, 1), 100.0f, 1.0f);
}

TEST(ArimaTest, FiniteOnRealData) {
  const auto& flow = TestFlow();
  Arima arima(12);
  arima.Train(flow);
  eval::EvalWindow window;
  window.min_history = 14;
  const eval::Metrics m = eval::EvaluateOnTestSplit(&arima, flow, window);
  EXPECT_TRUE(std::isfinite(m.rmse));
  EXPECT_GT(m.count, 0);
}

// --- GBRT ---

TEST(GbrtTest, FitsStepFunction) {
  GbrtConfig config;
  config.num_trees = 20;
  config.max_depth = 3;
  config.min_samples_leaf = 5;
  config.subsample = 1.0;
  GbrtRegressor gbrt(config);
  std::vector<std::vector<float>> x;
  std::vector<float> y;
  for (int i = 0; i < 400; ++i) {
    const float v = static_cast<float>(i) / 400.0f;
    x.push_back({v});
    y.push_back(v < 0.5f ? 1.0f : 5.0f);
  }
  gbrt.Fit(x, y);
  EXPECT_EQ(gbrt.num_trees_built(), 20);
  EXPECT_NEAR(gbrt.Predict({0.2f}), 1.0f, 0.3f);
  EXPECT_NEAR(gbrt.Predict({0.8f}), 5.0f, 0.3f);
}

TEST(GbrtTest, FitsAdditiveFunction) {
  GbrtConfig config;
  config.num_trees = 60;
  config.max_depth = 3;
  config.min_samples_leaf = 8;
  GbrtRegressor gbrt(config);
  common::Rng rng(2);
  std::vector<std::vector<float>> x;
  std::vector<float> y;
  for (int i = 0; i < 600; ++i) {
    const float a = static_cast<float>(rng.Uniform(0, 1));
    const float b = static_cast<float>(rng.Uniform(0, 1));
    x.push_back({a, b});
    y.push_back(2.0f * a + (b > 0.5f ? 3.0f : 0.0f));
  }
  gbrt.Fit(x, y);
  double err = 0.0;
  for (int i = 0; i < 100; ++i) {
    const float a = static_cast<float>(rng.Uniform(0.1, 0.9));
    const float b = static_cast<float>(rng.Uniform(0.1, 0.9));
    const float truth = 2.0f * a + (b > 0.5f ? 3.0f : 0.0f);
    err += std::fabs(gbrt.Predict({a, b}) - truth);
  }
  EXPECT_LT(err / 100, 0.6);
}

TEST(XgboostPredictorTest, TrainsAndPredictsOnFlow) {
  const auto& flow = TestFlow();
  GbrtConfig config;
  config.num_trees = 15;
  XgboostPredictor xgb(config);
  xgb.Train(flow);
  const Tensor pred = xgb.Predict(flow, flow.val_end + 1);
  ASSERT_EQ(pred.shape(), (tensor::Shape{flow.num_stations, 2}));
  for (float v : pred.data()) EXPECT_GE(v, 0.0f);
}

// --- Window features ---

TEST(WindowFeaturesTest, DimAndTimeEncoding) {
  const auto& flow = TestFlow();
  const auto norm =
      data::MinMaxNormalizer::Fit(flow.demand, flow.supply, flow.train_end);
  const int t = flow.FirstPredictableSlot(4, 2);
  const Tensor f = BuildWindowFeatures(flow, t, 4, 2, norm);
  ASSERT_EQ(f.shape(), (tensor::Shape{flow.num_stations,
                                       WindowFeatureDim(4, 2)}));
  // Time encodings identical across stations.
  const int dim = WindowFeatureDim(4, 2);
  for (int i = 1; i < flow.num_stations; ++i) {
    EXPECT_FLOAT_EQ(f.at(i, dim - 3), f.at(0, dim - 3));
    EXPECT_FLOAT_EQ(f.at(i, dim - 2), f.at(0, dim - 2));
  }
  // sin^2 + cos^2 = 1.
  const float s = f.at(0, dim - 3);
  const float c = f.at(0, dim - 2);
  EXPECT_NEAR(s * s + c * c, 1.0f, 1e-5);
}

// --- Neural baselines: smoke + shape tests with fast options ---

template <typename Model>
void ExpectTrainsAndPredicts(Model&& model) {
  const auto& flow = TestFlow();
  model.Train(flow);
  const int t = std::max(flow.val_end, model.MinHistorySlots(flow));
  const Tensor pred = model.Predict(flow, t);
  ASSERT_EQ(pred.shape(), (tensor::Shape{flow.num_stations, 2}));
  for (float v : pred.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
  }
}

TEST(NeuralBaselinesTest, MlpSmoke) {
  ExpectTrainsAndPredicts(MlpModel(FastOptions(), 4, 2));
}

TEST(NeuralBaselinesTest, RnnSmoke) {
  ExpectTrainsAndPredicts(RnnModel(FastOptions(), 8, 16));
}

TEST(NeuralBaselinesTest, LstmSmoke) {
  ExpectTrainsAndPredicts(LstmModel(FastOptions(), 8, 16));
}

TEST(NeuralBaselinesTest, GcnnSmoke) {
  ExpectTrainsAndPredicts(Gcnn(FastOptions(), 4, 2, 16));
}

TEST(NeuralBaselinesTest, MgnnSmoke) {
  ExpectTrainsAndPredicts(Mgnn(FastOptions(), 4, 2, 16));
}

TEST(NeuralBaselinesTest, AstgcnSmoke) {
  ExpectTrainsAndPredicts(Astgcn(FastOptions(), 4, 2, 1, 16));
}

TEST(NeuralBaselinesTest, StsgcnSmoke) {
  ExpectTrainsAndPredicts(Stsgcn(FastOptions(), 3, 2, 16));
}

TEST(NeuralBaselinesTest, GBikeSmoke) {
  ExpectTrainsAndPredicts(GBike(FastOptions(), 4, 2, 16, 5));
}

TEST(GBikeTest, AttentionFavorsNearbyStations) {
  const auto& flow = TestFlow();
  GBike gbike(FastOptions(), 4, 2, 16, /*neighbors=*/5, /*kernel_sigma=*/1.0);
  gbike.Train(flow);
  const Tensor attn =
      gbike.FirstLayerAttentionAt(flow, flow.val_end + flow.slots_per_day / 2);
  ASSERT_EQ(attn.dim(0), flow.num_stations);
  // Attention restricted to the kNN graph: each row has at most k+1 nonzero
  // entries (neighbours + self).
  for (int i = 0; i < flow.num_stations; ++i) {
    int nonzero = 0;
    float total = 0.0f;
    for (int j = 0; j < flow.num_stations; ++j) {
      if (attn.at(i, j) > 1e-6f) ++nonzero;
      total += attn.at(i, j);
    }
    EXPECT_LE(nonzero, 6);
    EXPECT_NEAR(total, 1.0f, 1e-3);
  }
}

TEST(MgnnTest, CorrelationMatrixProperties) {
  const auto& flow = TestFlow();
  const Tensor corr = DemandCorrelationMatrix(flow);
  for (int i = 0; i < flow.num_stations; ++i) {
    EXPECT_NEAR(corr.at(i, i), 1.0f, 1e-5);
    for (int j = 0; j < flow.num_stations; ++j) {
      EXPECT_GE(corr.at(i, j), -1.001f);
      EXPECT_LE(corr.at(i, j), 1.001f);
      EXPECT_FLOAT_EQ(corr.at(i, j), corr.at(j, i));
    }
  }
}

TEST(StsgcnTest, BlockAdjacencyStructure) {
  Tensor spatial({2, 2}, {0, 1, 1, 0});
  const Tensor block = BuildSpatialTemporalBlockAdjacency(spatial, 3);
  ASSERT_EQ(block.shape(), (tensor::Shape{6, 6}));
  // Spatial edges inside each slot block.
  EXPECT_FLOAT_EQ(block.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(block.at(2, 3), 1.0f);
  EXPECT_FLOAT_EQ(block.at(4, 5), 1.0f);
  // Temporal self-edges between consecutive blocks.
  EXPECT_FLOAT_EQ(block.at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(block.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(block.at(3, 5), 1.0f);
  // No edge across two steps.
  EXPECT_FLOAT_EQ(block.at(0, 4), 0.0f);
  // No cross-station temporal edges.
  EXPECT_FLOAT_EQ(block.at(0, 3), 0.0f);
}

}  // namespace
}  // namespace stgnn::baselines
