// Buffer pool unit tests plus the allocation-regression and parity batteries
// for the pooled-tensor memory plan:
//  - size-class rounding, cross-thread release, drain and disable/bypass
//  - poison tests: pooled buffers are pre-filled with NaN and every tensor
//    kernel that uses Tensor::Uninitialized must still produce bit-identical
//    results to the unpooled run (proving each overwrites every element)
//  - steady-state: after warmup, a training step performs zero fresh pool
//    allocations (every acquisition is a recycled buffer)
//  - whole-model parity: STGNN-DJD trained with the pool on and off, at 1, 2
//    and 7 kernel threads, produces bit-identical evaluation metrics.

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/stgnn_djd.h"
#include "data/city_simulator.h"
#include "data/flow_dataset.h"
#include "eval/experiment.h"
#include "gtest/gtest.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

using common::BufferPool;
using tensor::Tensor;
namespace ag = stgnn::autograd;

int64_t FreshAllocs(const BufferPool::Stats& before,
                    const BufferPool::Stats& after) {
  return (after.misses - before.misses) + (after.bypasses - before.bypasses);
}

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.data().size(), b.data().size());
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.data().size() * sizeof(float)))
      << "pooled and unpooled results differ bitwise";
}

// Fills the pool's bins for a spread of size classes with NaN-poisoned
// buffers, so any kernel that reads a pooled element before writing it
// produces NaN and fails the bitwise comparison against the unpooled run.
void PoisonPool() {
  BufferPool* pool = BufferPool::Global();
  for (size_t n : {size_t{64}, size_t{256}, size_t{1024}, size_t{4096},
                   size_t{16384}, size_t{65536}, size_t{262144}}) {
    for (int i = 0; i < 3; ++i) {
      std::vector<float> buf = pool->AcquireUninitialized(n);
      std::fill(buf.begin(), buf.end(),
                std::numeric_limits<float>::quiet_NaN());
      pool->Release(std::move(buf));
    }
  }
}

TEST(BufferPool, SizeClassRounding) {
  EXPECT_EQ(BufferPool::SizeClassFor(1), 64u);
  EXPECT_EQ(BufferPool::SizeClassFor(63), 64u);
  EXPECT_EQ(BufferPool::SizeClassFor(64), 64u);
  EXPECT_EQ(BufferPool::SizeClassFor(65), 128u);
  EXPECT_EQ(BufferPool::SizeClassFor(1000), 1024u);
  EXPECT_EQ(BufferPool::SizeClassFor(1024), 1024u);
  EXPECT_EQ(BufferPool::SizeClassFor(1025), 2048u);
  EXPECT_EQ(BufferPool::SizeClassFor(size_t{1} << 26), size_t{1} << 26);
}

TEST(BufferPool, AcquireRecyclesReleasedBuffer) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(true);
  pool->Drain();
  {
    std::vector<float> buf = pool->AcquireUninitialized(500);
    std::fill(buf.begin(), buf.end(), 7.0f);
    pool->Release(std::move(buf));
  }
  const auto before = pool->stats();
  std::vector<float> again = pool->AcquireZeroed(500);
  const auto after = pool->stats();
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(FreshAllocs(before, after), 0);
  ASSERT_EQ(again.size(), 500u);
  for (float v : again) ASSERT_EQ(v, 0.0f);  // zeroed despite recycling
  pool->Release(std::move(again));
}

TEST(BufferPool, CrossThreadReleaseIsAcquirable) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(true);
  pool->Drain();
  constexpr size_t kFloats = 5000;
  // The worker's thread cache flushes to the global bins on thread exit;
  // the main thread then acquires the same buffer.
  std::thread worker([&] {
    std::vector<float> buf;
    buf.reserve(BufferPool::SizeClassFor(kFloats));
    buf.resize(kFloats);
    pool->Release(std::move(buf));
  });
  worker.join();
  const auto before = pool->stats();
  std::vector<float> buf = pool->AcquireZeroed(kFloats);
  const auto after = pool->stats();
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(buf.size(), kFloats);
  pool->Release(std::move(buf));
}

TEST(BufferPool, DrainFreesEverything) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(true);
  pool->Release(pool->AcquireUninitialized(300));
  pool->Drain();
  const auto before = pool->stats();
  std::vector<float> buf = pool->AcquireZeroed(300);
  const auto after = pool->stats();
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.hits - before.hits, 0);
  pool->Release(std::move(buf));
}

TEST(BufferPool, DisabledBypassesAndFrees) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(false);
  const auto before = pool->stats();
  std::vector<float> buf = pool->AcquireZeroed(128);
  pool->Release(std::move(buf));
  std::vector<float> again = pool->AcquireZeroed(128);
  const auto after = pool->stats();
  EXPECT_EQ(after.bypasses - before.bypasses, 2);
  EXPECT_EQ(after.hits - before.hits, 0);
  pool->SetEnabled(true);
}

TEST(BufferPool, TensorDestructionRecyclesIntoNextTensor) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(true);
  pool->Drain();
  { Tensor t({40, 40}); }
  const auto before = pool->stats();
  Tensor t2({40, 40});
  const auto after = pool->stats();
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(FreshAllocs(before, after), 0);
}

// Pins the move-aware construction audit: moving tensors and adopting
// caller buffers must not touch the allocator or the pool.
TEST(BufferPool, MoveConstructionDoesNotAllocate) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(true);
  Tensor source({64, 64});
  std::vector<float> raw(128, 1.0f);
  const auto before = pool->stats();
  Tensor moved(std::move(source));              // move ctor
  Tensor assigned;
  const auto mid = pool->stats();               // assigned's scalar buffer
  assigned = std::move(moved);                  // move assign
  Tensor adopted({128}, std::move(raw));        // buffer adoption
  Tensor from_vec = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  const auto after = pool->stats();
  // Move construction and assignment acquire nothing. FromVector adopts the
  // initializer-list vector. The only pool traffic in the window is the
  // default-constructed scalar and the release of assigned's previous
  // buffer.
  EXPECT_EQ(after.hits - mid.hits, 0);
  EXPECT_EQ(FreshAllocs(mid, after), 0);
  EXPECT_LE(FreshAllocs(before, mid) + (mid.hits - before.hits), 1);
  EXPECT_EQ(from_vec.size(), 3);
  EXPECT_EQ(adopted.size(), 128);
}

// Every kernel converted to Tensor::Uninitialized must overwrite all of its
// output before reading any of it. Poison the pool with NaN, run the op,
// and require the result to match the unpooled run bit-for-bit.
TEST(BufferPoolParity, KernelsOverwritePoisonedBuffers) {
  BufferPool* pool = BufferPool::Global();
  common::Rng rng(99);
  const Tensor a = Tensor::RandomUniform({24, 36}, -2.0f, 2.0f, &rng);
  const Tensor b = Tensor::RandomUniform({24, 36}, -2.0f, 2.0f, &rng);
  const Tensor row = Tensor::RandomUniform({1, 36}, -2.0f, 2.0f, &rng);
  const Tensor big_a = Tensor::RandomUniform({96, 96}, -1.0f, 1.0f, &rng);
  const Tensor big_b = Tensor::RandomUniform({96, 96}, -1.0f, 1.0f, &rng);

  struct Case {
    const char* name;
    std::function<Tensor()> run;
  };
  const std::vector<Case> cases = {
      {"Add", [&] { return tensor::Add(a, b); }},
      {"AddBroadcast", [&] { return tensor::Add(a, row); }},
      {"Relu", [&] { return tensor::Relu(a); }},
      {"Elu", [&] { return tensor::Elu(a); }},
      {"Sigmoid", [&] { return tensor::Sigmoid(a); }},
      {"MulScalar", [&] { return tensor::MulScalar(a, 0.37f); }},
      {"Transpose", [&] { return a.Transpose(); }},
      {"MatMulSmall", [&] { return tensor::MatMul(a, a.Transpose()); }},
      {"MatMulPanel", [&] { return tensor::MatMul(big_a, big_b); }},
      {"RowSoftmax", [&] { return tensor::RowSoftmax(a); }},
      {"SumAxis0", [&] { return tensor::SumAxis(a, 0); }},
      {"SumAxis1", [&] { return tensor::SumAxis(a, 1, true); }},
      {"MaxAxis", [&] { return tensor::MaxAxis(a, 1); }},
      {"Concat0", [&] { return tensor::Concat({a, b}, 0); }},
      {"Concat1", [&] { return tensor::Concat({a, b}, 1); }},
      {"Stack", [&] { return tensor::Stack({a, b}); }},
      {"SliceRows", [&] { return a.SliceRows(3, 17); }},
      {"Col", [&] { return a.Col(5); }},
      {"Reshape", [&] { return a.Reshape({36, 24}); }},
      {"Full", [&] { return Tensor::Full({33, 7}, 3.5f); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    pool->SetEnabled(false);  // drains; fresh zeroed buffers
    const Tensor expected = c.run();
    pool->SetEnabled(true);
    PoisonPool();
    const Tensor pooled = c.run();
    ExpectBitEqual(expected, pooled);
    pool->Drain();  // discard remaining poison
  }
}

// Same poison discipline through autograd: forward + backward of a small
// graph (bias add, relu, matmul, reductions) with release_graph on, against
// the unpooled run.
TEST(BufferPoolParity, BackwardMatchesUnpooledBitwise) {
  BufferPool* pool = BufferPool::Global();
  auto run = [&]() {
    common::Rng rng(7);
    nn::Mlp mlp({12, 16, 8}, &rng);
    ag::Variable x = ag::Variable::Constant(
        Tensor::RandomUniform({10, 12}, -1.0f, 1.0f, &rng));
    ag::Variable target = ag::Variable::Constant(
        Tensor::RandomUniform({10, 8}, -1.0f, 1.0f, &rng));
    ag::Variable pred = mlp.Forward(x);
    ag::Variable loss =
        ag::MeanAll(ag::Square(ag::Sub(pred, target)));
    loss.Backward({.release_graph = true});
    std::vector<Tensor> out;
    out.push_back(loss.value());
    for (const auto& p : mlp.parameters()) out.push_back(p.grad());
    return out;
  };
  pool->SetEnabled(false);
  const std::vector<Tensor> expected = run();
  pool->SetEnabled(true);
  PoisonPool();
  const std::vector<Tensor> pooled = run();
  ASSERT_EQ(expected.size(), pooled.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectBitEqual(expected[i], pooled[i]);
  }
  pool->Drain();
}

// The tentpole acceptance: after warmup, a steady-state training step
// (forward, backward with release_graph, clip, Adam step) performs ZERO
// fresh pool allocations — every tensor buffer it needs is recycled.
TEST(BufferPoolSteadyState, TrainingStepPerformsNoFreshAllocations) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(true);
  common::SetNumThreads(2);
  common::Rng rng(123);
  nn::Mlp mlp({32, 64, 64, 16}, &rng);
  nn::Adam opt(mlp.parameters(), 1e-3f);
  const Tensor x = Tensor::RandomUniform({48, 32}, -1.0f, 1.0f, &rng);
  const Tensor y = Tensor::RandomUniform({48, 16}, -1.0f, 1.0f, &rng);
  auto step = [&]() {
    ag::Variable input = ag::Variable::Constant(x);
    ag::Variable target = ag::Variable::Constant(y);
    ag::Variable pred = mlp.Forward(input);
    ag::Variable loss = ag::MeanAll(ag::Square(ag::Sub(pred, target)));
    opt.ZeroGrad();
    loss.Backward({.release_graph = true});
    nn::ClipGradNorm(mlp.parameters(), 5.0f);
    opt.Step();
    return loss.value().item();
  };
  for (int i = 0; i < 3; ++i) step();  // warmup fills the bins
  const auto before = pool->stats();
  float last = 0.0f;
  for (int i = 0; i < 10; ++i) last = step();
  const auto after = pool->stats();
  EXPECT_EQ(FreshAllocs(before, after), 0)
      << "steady-state step hit the allocator";
  EXPECT_GT(after.hits - before.hits, 0);
  EXPECT_TRUE(std::isfinite(last));
}

const data::FlowDataset& MiniFlow() {
  static const data::FlowDataset* flow = [] {
    data::CityConfig config = data::CityConfig::Tiny();
    config.num_days = 10;
    config.seed = 21;
    return new data::FlowDataset(
        data::BuildFlowDataset(data::CitySimulator(config).Generate()));
  }();
  return *flow;
}

eval::Metrics TrainMiniModel(bool pooled, int threads) {
  BufferPool::Global()->SetEnabled(pooled);
  core::StgnnConfig config;
  config.short_term_slots = 6;
  config.long_term_days = 2;
  config.fcg_layers = 1;
  config.pcg_layers = 1;
  config.attention_heads = 2;
  config.epochs = 1;
  config.batch_size = 8;
  config.max_samples_per_epoch = 24;
  config.seed = 5;
  config.num_threads = threads;
  core::StgnnDjdPredictor model(config);
  model.Train(MiniFlow());
  eval::EvalWindow window;
  window.min_history = model.MinHistorySlots(MiniFlow());
  return eval::EvaluateOnTestSplit(&model, MiniFlow(), window);
}

// Whole model, pool on vs off, at 1/2/7 kernel threads: training and
// evaluation must agree bit-for-bit in every combination.
TEST(BufferPoolParity, ModelTrainingBitIdenticalPooledVsUnpooled) {
  for (int threads : {1, 2, 7}) {
    SCOPED_TRACE(threads);
    const eval::Metrics pooled = TrainMiniModel(true, threads);
    const eval::Metrics unpooled = TrainMiniModel(false, threads);
    EXPECT_EQ(pooled.rmse, unpooled.rmse);
    EXPECT_EQ(pooled.mae, unpooled.mae);
    EXPECT_EQ(pooled.count, unpooled.count);
  }
  BufferPool::Global()->SetEnabled(true);  // restore for later tests
}

// A second full Train in a warm process recycles nearly everything: the
// hit count dwarfs the (bounded) fresh-allocation count.
TEST(BufferPoolSteadyState, SecondTrainRunRecyclesBuffers) {
  BufferPool* pool = BufferPool::Global();
  pool->SetEnabled(true);
  TrainMiniModel(true, 2);  // warm the bins
  const auto before = pool->stats();
  TrainMiniModel(true, 2);
  const auto after = pool->stats();
  EXPECT_LE(FreshAllocs(before, after), 64);
  EXPECT_GT(after.hits - before.hits, 1000);
}

}  // namespace
}  // namespace stgnn
