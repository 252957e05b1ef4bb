// Micro-benchmarks of the computational kernels the model spends its time
// in: matmul, row softmax, the attention aggregator, flow convolution, and
// a full forward/backward step. Useful for tracking substrate regressions.
//
// Every benchmark takes the kernel thread count as its last argument and
// sweeps 1/2/4/hardware threads (deduplicated), so one run shows both the
// serial baseline and the pool scaling. `tools/bench_baseline` distils the
// same kernels into BENCH_kernels.json for the tracked perf record.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aggregators.h"
#include "core/flow_convolution.h"
#include "nn/loss.h"
#include "tensor/csr.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

// 1/2/4/N kernel threads, deduplicated and sorted.
std::vector<int64_t> ThreadSweep() {
  std::vector<int64_t> sweep = {1, 2, 4, common::HardwareThreads()};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  return sweep;
}

void MatMulArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {24, 50, 128, 256, 512}) {
    for (int64_t t : ThreadSweep()) b->Args({n, t});
  }
}

void SweepArgs(benchmark::internal::Benchmark* b,
               std::initializer_list<int64_t> sizes) {
  for (int64_t n : sizes) {
    for (int64_t t : ThreadSweep()) b->Args({n, t});
  }
}

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::SetNumThreads(static_cast<int>(state.range(1)));
  common::Rng rng(1);
  const Tensor a = Tensor::RandomNormal({n, n}, 0, 1, &rng);
  const Tensor b = Tensor::RandomNormal({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Apply(MatMulArgs);

// The n=256 serving model's real products, one per shape-dispatch path:
// label "m x k x n layout", where layout is how the operands are stored —
// "a.b" (MatMul), "a.bT" (MatMulABt, the dA of a backward pass) or "aT.b"
// (MatMulAtB, the dB). A local tool for the per-shape table in DESIGN.md
// §7d, not a gate.
struct ModelShape {
  int m, k, n;
  int layout;  // 0 = a.b, 1 = a.bT, 2 = aT.b
  const char* what;
};
constexpr ModelShape kModelShapes[] = {
    {1, 8, 65536, 0, "flow-conv forward (Eq. 1-4)"},
    {1, 65536, 8, 1, "flow-conv weight gradient"},
    {256, 256, 1, 0, "attention score (Eq. 15)"},
    {256, 512, 2, 0, "head (Eq. 20)"},
    {512, 256, 2, 2, "head weight gradient"},
    {256, 256, 256, 0, "gate / aggregation"},
    {256, 256, 256, 1, "gate / aggregation dA"},
    {256, 256, 256, 2, "gate / aggregation dB"},
};

void BM_MatMulModelShapes(benchmark::State& state) {
  const ModelShape& s = kModelShapes[state.range(0)];
  common::SetNumThreads(static_cast<int>(state.range(1)));
  common::Rng rng(1);
  const tensor::Shape a_shape =
      s.layout == 2 ? tensor::Shape{s.k, s.m} : tensor::Shape{s.m, s.k};
  const tensor::Shape b_shape =
      s.layout == 1 ? tensor::Shape{s.n, s.k} : tensor::Shape{s.k, s.n};
  const Tensor a = Tensor::RandomNormal(a_shape, 0, 1, &rng);
  const Tensor b = Tensor::RandomNormal(b_shape, 0, 1, &rng);
  for (auto _ : state) {
    switch (s.layout) {
      case 0:
        benchmark::DoNotOptimize(tensor::MatMul(a, b));
        break;
      case 1:
        benchmark::DoNotOptimize(tensor::MatMulABt(a, b));
        break;
      default:
        benchmark::DoNotOptimize(tensor::MatMulAtB(a, b));
        break;
    }
  }
  static const char* kLayouts[] = {"a.b", "a.bT", "aT.b"};
  state.SetLabel(std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                 std::to_string(s.n) + " " + kLayouts[s.layout] + " " +
                 s.what);
  state.SetItemsProcessed(state.iterations() * int64_t{s.m} * s.k * s.n);
}
BENCHMARK(BM_MatMulModelShapes)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int64_t i = 0; i < static_cast<int64_t>(std::size(kModelShapes));
           ++i) {
        b->Args({i, 1});
        const int64_t hw = common::HardwareThreads();
        if (hw > 1) b->Args({i, hw});
      }
    })
    ->Unit(benchmark::kMicrosecond);

// The broadcast, gradient-reduce and concat ops of the model's learned
// graphs and heads at the serving n: the FCG row normalisation (Eq. 10,
// [n,n] / [n,1]), the PCG outer sum (Eq. 15, [n,1] + [1,n], whose backward
// reduces to both operands) and the column concat of the embeddings and
// head (Eq. 9, 18, 19). Forward alone, and forward plus backward from a
// ones gradient.
enum BroadcastCase { kFcgDiv, kPcgOuterAdd, kConcatCols, kNumBroadcastCases };

void BM_BroadcastModelShapes(benchmark::State& state) {
  const auto which = static_cast<BroadcastCase>(state.range(0));
  const bool backward = state.range(1) != 0;
  const int n = static_cast<int>(state.range(2));
  common::SetNumThreads(static_cast<int>(state.range(3)));
  common::Rng rng(9);
  const Tensor full = Tensor::RandomUniform({n, n}, 0.1f, 1, &rng);
  const Tensor other = Tensor::RandomUniform({n, n}, 0.1f, 1, &rng);
  const Tensor col = Tensor::RandomUniform({n, 1}, 1, 2, &rng);
  const Tensor row = Tensor::RandomUniform({1, n}, 1, 2, &rng);
  for (auto _ : state) {
    if (!backward) {
      switch (which) {
        case kFcgDiv:
          benchmark::DoNotOptimize(tensor::Div(full, col));
          break;
        case kPcgOuterAdd:
          benchmark::DoNotOptimize(tensor::Add(col, row));
          break;
        default:
          benchmark::DoNotOptimize(tensor::Concat({full, other}, 1));
          break;
      }
      continue;
    }
    Variable y;
    switch (which) {
      case kFcgDiv:
        y = ag::Div(Variable::Parameter(full), Variable::Parameter(col));
        break;
      case kPcgOuterAdd:
        y = ag::Add(Variable::Parameter(col), Variable::Parameter(row));
        break;
      default:
        y = ag::Concat({Variable::Parameter(full), Variable::Parameter(other)},
                       1);
        break;
    }
    y.Backward();
    benchmark::DoNotOptimize(y);
  }
  static const char* kWhat[] = {"FCG Div [n,n]/[n,1]",
                                "PCG outer Add [n,1]+[1,n]",
                                "Concat [n,n]x2 axis 1"};
  state.SetLabel(std::string(kWhat[which]) + (backward ? " fwd+bwd" : " fwd"));
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_BroadcastModelShapes)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int64_t which = 0; which < kNumBroadcastCases; ++which) {
        for (int64_t backward : {0, 1}) {
          for (int64_t n : {256, 512}) {
            b->Args({which, backward, n, 1});
            const int64_t hw = common::HardwareThreads();
            if (hw > 1) b->Args({which, backward, n, hw});
          }
        }
      }
    })
    ->Unit(benchmark::kMicrosecond);

void BM_RowSoftmax(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::SetNumThreads(static_cast<int>(state.range(1)));
  common::Rng rng(2);
  const Tensor a = Tensor::RandomNormal({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::RowSoftmax(a));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_RowSoftmax)->Apply([](benchmark::internal::Benchmark* b) {
  SweepArgs(b, {50, 128, 256, 512});
});

void BM_MaskedNeighborMax(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::SetNumThreads(static_cast<int>(state.range(1)));
  common::Rng rng(6);
  const Tensor h = Tensor::RandomNormal({n, n}, 0, 1, &rng);
  Tensor mask = Tensor::Zeros({n, n});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      mask.at(i, j) = ((i + j) % 3 == 0) ? 1.0f : 0.0f;
    }
  }
  Variable hv = Variable::Constant(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaskedNeighborMax(hv, mask));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_MaskedNeighborMax)->Apply([](benchmark::internal::Benchmark* b) {
  SweepArgs(b, {50, 128});
});

// ~density% random edges plus self-loops, like an FCG slot's edge mask.
Tensor RandomEdgeMask(int n, int density_pct, common::Rng* rng) {
  Tensor mask = Tensor::Zeros({n, n});
  const double p = density_pct / 100.0;
  for (int i = 0; i < n; ++i) {
    mask.at(i, i) = 1.0f;
    for (int j = 0; j < n; ++j) {
      if (rng->Uniform() < p) mask.at(i, j) = 1.0f;
    }
  }
  return mask;
}

// n in {128, 256, 512} x edge density {5, 10, 25, 50}% x thread sweep: the
// dense/sparse crossover behind StgnnConfig::sparse_density_threshold.
void DensityArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {128, 256, 512}) {
    for (int64_t d : {5, 10, 25, 50}) {
      for (int64_t t : ThreadSweep()) b->Args({n, d, t});
    }
  }
}

// FCG aggregation as dense MatMul: the cost is O(n^2 f) no matter how many
// of the weights are zero. The comparison baseline for BM_SpMM.
void BM_SpMMDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int density = static_cast<int>(state.range(1));
  common::SetNumThreads(static_cast<int>(state.range(2)));
  common::Rng rng(7);
  const Tensor weights = RandomEdgeMask(n, density, &rng);
  const Tensor x = Tensor::RandomNormal({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(weights, x));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_SpMMDense)->Apply(DensityArgs);

// Same aggregation on the CSR kernel: O(nnz f), bit-identical output.
void BM_SpMM(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int density = static_cast<int>(state.range(1));
  common::SetNumThreads(static_cast<int>(state.range(2)));
  common::Rng rng(7);
  const tensor::Csr csr =
      tensor::Csr::FromDense(RandomEdgeMask(n, density, &rng));
  const Tensor x = Tensor::RandomNormal({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(csr, x));
  }
  state.SetItemsProcessed(state.iterations() * csr.nnz() * n);
}
BENCHMARK(BM_SpMM)->Apply(DensityArgs);

void BM_NeighborMaxDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int density = static_cast<int>(state.range(1));
  common::SetNumThreads(static_cast<int>(state.range(2)));
  common::Rng rng(8);
  const Tensor mask = RandomEdgeMask(n, density, &rng);
  Variable hv = Variable::Constant(Tensor::RandomNormal({n, n}, 0, 1, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaskedNeighborMax(hv, mask));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_NeighborMaxDense)->Apply(DensityArgs);

void BM_NeighborMaxSparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int density = static_cast<int>(state.range(1));
  common::SetNumThreads(static_cast<int>(state.range(2)));
  common::Rng rng(8);
  const auto pattern = std::make_shared<const tensor::Csr>(
      tensor::Csr::FromDense(RandomEdgeMask(n, density, &rng)));
  Variable hv = Variable::Constant(Tensor::RandomNormal({n, n}, 0, 1, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaskedNeighborMax(hv, pattern));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_NeighborMaxSparse)->Apply(DensityArgs);

void BM_AttentionLayerForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::SetNumThreads(static_cast<int>(state.range(1)));
  common::Rng rng(3);
  core::AttentionGnnLayer layer(n, 4, &rng);
  Variable features =
      Variable::Constant(Tensor::RandomNormal({n, n}, 0, 1, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(features));
  }
}
BENCHMARK(BM_AttentionLayerForward)
    ->Apply([](benchmark::internal::Benchmark* b) { SweepArgs(b, {24, 50}); });

void BM_FlowConvolutionForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::SetNumThreads(static_cast<int>(state.range(1)));
  common::Rng rng(4);
  core::FlowConvolution conv(n, 96, 7, &rng);
  data::StHistory history;
  history.inflow_short = Tensor::RandomUniform({96, n * n}, 0, 1, &rng);
  history.outflow_short = Tensor::RandomUniform({96, n * n}, 0, 1, &rng);
  history.inflow_long = Tensor::RandomUniform({7, n * n}, 0, 1, &rng);
  history.outflow_long = Tensor::RandomUniform({7, n * n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(history));
  }
}
BENCHMARK(BM_FlowConvolutionForward)
    ->Apply([](benchmark::internal::Benchmark* b) { SweepArgs(b, {24, 50}); });

void BM_ForwardBackwardStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::SetNumThreads(static_cast<int>(state.range(1)));
  common::Rng rng(5);
  core::AttentionGnnLayer layer(n, 4, &rng);
  Variable features =
      Variable::Constant(Tensor::RandomNormal({n, n}, 0, 1, &rng));
  Variable target =
      Variable::Constant(Tensor::RandomNormal({n, n}, 0, 1, &rng));
  for (auto _ : state) {
    layer.ZeroGrad();
    Variable out = layer.Forward(features);
    Variable loss = ag::MeanAll(ag::Square(ag::Sub(out, target)));
    loss.Backward();
    benchmark::DoNotOptimize(loss.value().item());
  }
}
BENCHMARK(BM_ForwardBackwardStep)
    ->Apply([](benchmark::internal::Benchmark* b) { SweepArgs(b, {24, 50}); });

}  // namespace
}  // namespace stgnn

BENCHMARK_MAIN();
