// Staged-forward equivalence battery: the refactored
// ComputeEmbeddings -> BuildGraph -> ForwardFromStages pipeline must be
// bit-identical to the monolithic StgnnDjdModel::Forward across a
// randomized sweep of model shapes, ablations, dispatch modes, and thread
// counts, and both paths must stay on the golden values dumped from the
// pre-refactor monolithic build (tolerance for compiler-flag drift, same
// discipline as golden_regression_test).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/stgnn_djd.h"
#include "data/window.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"

namespace stgnn::core {
namespace {

using tensor::Tensor;

// Deterministic pseudo-random flow history with the quarter-count grid the
// pre-refactor golden dump used (values in {0, 0.25, ..., 1.0}).
data::StHistory RandomHistory(int n, int k, int d, uint64_t seed) {
  common::Rng rng(seed);
  data::StHistory h;
  auto fill = [&](int rows) {
    Tensor t({rows, n * n});
    for (int64_t i = 0; i < t.size(); ++i) {
      t.flat(i) = static_cast<float>(rng.UniformInt(5)) * 0.25f;
    }
    return t;
  };
  h.inflow_short = fill(k);
  h.outflow_short = fill(k);
  h.inflow_long = fill(d);
  h.outflow_long = fill(d);
  return h;
}

bool BitEqual(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) return false;
  for (int64_t i = 0; i < want.size(); ++i) {
    if (got.flat(i) != want.flat(i)) return false;
  }
  return true;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.flat(i), want.flat(i)) << "element " << i;
  }
}

// Runs the monolithic and the staged path on the same model + history and
// asserts bitwise equality; returns the (shared) output for further checks.
Tensor CheckStagedMatchesMonolith(const StgnnDjdModel& model,
                                  const data::StHistory& history) {
  const Tensor monolith =
      model.Forward(history, /*training=*/false, nullptr).value();
  const StgnnDjdModel::Embeddings embeddings =
      model.ComputeEmbeddings(history);
  FlowConvolutedGraph graph;
  if (model.uses_fcg()) graph = model.BuildGraph(embeddings);
  const FlowConvolutedGraph* graph_ptr = model.uses_fcg() ? &graph : nullptr;
  const Tensor staged = model.ForwardFromStages(embeddings, graph_ptr);
  ExpectBitEqual(staged, monolith);
  // Replaying the cached stages a second time (what the serving cache does
  // on every hit) must also be bit-identical — no hidden state.
  const Tensor replay = model.ForwardFromStages(embeddings, graph_ptr);
  ExpectBitEqual(replay, monolith);
  return monolith;
}

// ~50 seeded random configurations over (n, k, d, heads, layer counts,
// horizon, ablations, sparse/dense dispatch, thread count). Every one must
// produce bit-identical staged and monolithic forwards.
TEST(StagedForwardTest, RandomConfigSweepBitIdenticalToMonolith) {
  const int saved_threads = common::GetNumThreads();
  const int thread_counts[] = {1, 2, 7};
  const float sparse_thresholds[] = {0.0f, 0.25f, 1.0f};
  common::Rng meta(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 3 + static_cast<int>(meta.UniformInt(8));   // 3..10
    const int k = 1 + static_cast<int>(meta.UniformInt(4));   // 1..4
    const int d = 1 + static_cast<int>(meta.UniformInt(2));   // 1..2
    StgnnConfig config;
    config.short_term_slots = k;
    config.long_term_days = d;
    config.fcg_layers = 1 + static_cast<int>(meta.UniformInt(2));
    config.pcg_layers = 1 + static_cast<int>(meta.UniformInt(2));
    config.attention_heads = 1 + static_cast<int>(meta.UniformInt(4));
    config.horizon = 1 + static_cast<int>(meta.UniformInt(3));
    // Dropout must be irrelevant at inference; keep it non-zero to pin the
    // "dropout is identity when not training" assumption the staged path
    // relies on.
    config.dropout = 0.2f;
    config.sparse_density_threshold = sparse_thresholds[meta.UniformInt(3)];
    config.ablation.use_flow_convolution = meta.UniformInt(4) != 0;
    config.ablation.use_fcg = meta.UniformInt(4) != 0;
    config.ablation.use_pcg = meta.UniformInt(4) != 0;
    if (!config.ablation.use_fcg && !config.ablation.use_pcg) {
      config.ablation.use_fcg = true;  // the head needs >= 1 branch
    }
    common::SetNumThreads(thread_counts[trial % 3]);
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" +
                 std::to_string(n) + " k=" + std::to_string(k) + " d=" +
                 std::to_string(d) + " variant=" + config.DescribeVariant() +
                 " threads=" + std::to_string(thread_counts[trial % 3]));
    common::Rng model_rng(1000 + trial * 7);
    const StgnnDjdModel model(n, config, &model_rng);
    const data::StHistory history =
        RandomHistory(n, k, d, 2000 + trial * 13);
    CheckStagedMatchesMonolith(model, history);
  }
  common::SetNumThreads(saved_threads);
}

// Golden pins dumped from the pre-refactor monolithic build (same
// generator seeds). Tolerances absorb compiler/flag drift across
// toolchains; the bitwise guarantee is enforced in-process above.
struct GoldenCase {
  const char* tag;
  int n, k, d, heads, fcg_layers, pcg_layers;
  float sparse;
  int horizon;
  uint64_t seed;
  double first, last0, sum, sumsq;
};

TEST(StagedForwardTest, MatchesPreRefactorGoldens) {
  const GoldenCase cases[] = {
      {"A", 6, 3, 1, 2, 1, 1, 0.0f, 1, 11,
       -0.716401041, 0.0703274161, -2.83652545325, 2.09526041563},
      {"B", 9, 4, 2, 3, 2, 2, 1.0f, 1, 22,
       0.402148366, 0.00228659878, 6.60610462422, 3.29319930187},
      {"C", 12, 2, 1, 1, 1, 2, 0.5f, 2, 33,
       1.51034331, 0.0605739318, 23.543314252, 49.5646041279},
      {"D", 5, 1, 1, 4, 2, 1, 0.0f, 3, 44,
       -0.903612137, -0.358852267, 5.64262614772, 13.988626635},
  };
  auto tol = [](double golden) {
    return std::max(1e-3, 2e-2 * std::abs(golden));
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.tag);
    StgnnConfig config;
    config.short_term_slots = c.k;
    config.long_term_days = c.d;
    config.fcg_layers = c.fcg_layers;
    config.pcg_layers = c.pcg_layers;
    config.attention_heads = c.heads;
    config.dropout = 0.0f;
    config.horizon = c.horizon;
    config.sparse_density_threshold = c.sparse;
    common::Rng model_rng(c.seed);
    const StgnnDjdModel model(c.n, config, &model_rng);
    const data::StHistory history =
        RandomHistory(c.n, c.k, c.d, c.seed + 1);
    // The staged path was just proven bit-identical to the monolith; pin
    // the shared output against the pre-refactor dump.
    const Tensor out = CheckStagedMatchesMonolith(model, history);
    double sum = 0.0;
    double sumsq = 0.0;
    for (int64_t i = 0; i < out.size(); ++i) {
      sum += out.flat(i);
      sumsq += static_cast<double>(out.flat(i)) * out.flat(i);
    }
    EXPECT_NEAR(out.flat(0), c.first, tol(c.first));
    EXPECT_NEAR(out.at(0, out.dim(1) - 1), c.last0, tol(c.last0));
    EXPECT_NEAR(sum, c.sum, tol(c.sum));
    EXPECT_NEAR(sumsq, c.sumsq, tol(c.sumsq));
  }
}

// The FCG pattern split: BuildFcgPattern + BuildFlowConvolutedGraphFromPattern
// must compose to exactly BuildFlowConvolutedGraph, and a pattern must be
// reusable across weight attachments (what the serving cache relies on).
TEST(StagedForwardTest, FcgPatternSplitComposesBitIdentically) {
  common::Rng rng(7);
  const int n = 9;
  auto random_square = [&] {
    Tensor t({n, n});
    for (int64_t i = 0; i < t.size(); ++i) {
      t.flat(i) = static_cast<float>(rng.UniformInt(3)) * 0.5f - 0.25f;
    }
    return t;
  };
  const Tensor features = random_square();
  const Tensor inflow = random_square();
  const Tensor outflow = random_square();

  const FlowConvolutedGraph direct = BuildFlowConvolutedGraph(
      autograd::Variable::Constant(features),
      autograd::Variable::Constant(inflow),
      autograd::Variable::Constant(outflow));

  FcgPattern pattern = BuildFcgPattern(inflow, outflow);
  ASSERT_TRUE(pattern.defined());
  ExpectBitEqual(pattern.edge_mask, direct.edge_mask);
  // Reuse the pattern twice — the shared CSR topology must not be consumed
  // or mutated by attaching weights.
  for (int round = 0; round < 2; ++round) {
    const FlowConvolutedGraph staged = BuildFlowConvolutedGraphFromPattern(
        autograd::Variable::Constant(features), pattern);
    ExpectBitEqual(staged.edge_mask, direct.edge_mask);
    ASSERT_NE(staged.edge_csr, nullptr);
    EXPECT_EQ(staged.edge_csr->nnz(), direct.edge_csr->nnz());
    ExpectBitEqual(staged.weights.value(), direct.weights.value());
  }
}

// The forward writes no state: monolithic forwards, staged replays and the
// attention inspection may run concurrently on one shared model (what
// serving and the online trainer do with a live snapshot), and every result
// equals the serial one bit for bit. Under TSAN this also proves that no
// forward writes into the model.
TEST(StagedForwardTest, ConcurrentInferenceForwardsShareOneModel) {
  const int saved_threads = common::GetNumThreads();
  common::SetNumThreads(2);
  const int n = 10;
  StgnnConfig config;
  config.short_term_slots = 3;
  config.long_term_days = 1;
  config.pcg_layers = 2;
  config.attention_heads = 2;
  common::Rng model_rng(91);
  const StgnnDjdModel model(n, config, &model_rng);
  const data::StHistory history = RandomHistory(n, 3, 1, 92);
  const StgnnDjdModel::Embeddings embeddings =
      model.ComputeEmbeddings(history);
  const FlowConvolutedGraph graph = model.BuildGraph(embeddings);
  const AttentionGnnLayer& first_pcg = model.pcg_branch()->attention_layer(0);
  auto attention = [&] {
    return first_pcg.Attention(
        autograd::Variable::Constant(embeddings.node_features));
  };

  const Tensor want_forward =
      model.Forward(history, /*training=*/false, nullptr).value();
  const Tensor want_staged = model.ForwardFromStages(embeddings, &graph);
  const std::vector<Tensor> want_attention = attention();
  ASSERT_EQ(want_attention.size(), 2u);

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        bool same = true;
        switch ((w + round) % 3) {
          case 0:
            same = BitEqual(
                model.Forward(history, /*training=*/false, nullptr).value(),
                want_forward);
            break;
          case 1:
            same = BitEqual(model.ForwardFromStages(embeddings, &graph),
                            want_staged);
            break;
          case 2: {
            const std::vector<Tensor> heads = attention();
            same = heads.size() == want_attention.size();
            for (size_t u = 0; u < heads.size(); ++u) {
              same = same && BitEqual(heads[u], want_attention[u]);
            }
            break;
          }
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  common::SetNumThreads(saved_threads);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace stgnn::core
