// Kernel benchmark baseline recorder.
//
// Times the hot kernels (MatMul, row softmax, masked-neighbour-max, the
// attention aggregator's full forward/backward step, and the dense-vs-CSR
// density sweep behind the sparse dispatch threshold) at 1/2/4/N kernel
// threads and writes BENCH_kernels.json: ns/op and items/s per kernel per
// thread count, alongside the recorded seed (pre-parallelisation, -O2,
// single-thread) numbers so every future PR's perf claims are checkable
// against both. End-to-end numbers for the full model (train step, served
// request) come from perfbench/, not from here.
//
// Usage: bench_baseline [--out PATH] [--min-seconds S] [--trace-out PATH]
//                       [--large]
// Regenerate the tracked file from the repo root with:
//   ./build/tools/bench_baseline --out BENCH_kernels.json
//
// --trace-out additionally records every kernel span during the sweep and
// writes a chrome://tracing / Perfetto JSON next to the bench numbers, plus
// the counter registry (flops, chunks dispatched, ...) to stderr — the span
// breakdown behind each BENCH_*.json claim. The tracked JSON's schema is
// unchanged either way.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/counters.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/aggregators.h"
#include "tensor/csr.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

// Seed-kernel reference timings: the pre-parallelisation scalar kernels
// (branchy ikj MatMul, serial softmax/aggregators) built at the seed's -O2,
// measured single-threaded on the 1-core reference runner this repo's
// baselines are recorded on. Kept in-source so regenerating the JSON
// preserves the historical comparison point.
struct SeedEntry {
  const char* kernel;
  double ns_per_op;
  double items;  // per op; items/s = items / (ns_per_op * 1e-9)
};

constexpr SeedEntry kSeedBaseline[] = {
    {"matmul_24", 17702.8, 24.0 * 24 * 24},
    {"matmul_50", 151909.3, 50.0 * 50 * 50},
    {"matmul_128", 2514450.6, 128.0 * 128 * 128},
    {"matmul_256", 20471153.2, 256.0 * 256 * 256},
    {"matmul_512", 159031045.5, 512.0 * 512 * 512},
    {"row_softmax_50", 64871.0, 50.0 * 50},
    {"row_softmax_128", 278029.1, 128.0 * 128},
    {"row_softmax_256", 1082272.2, 256.0 * 256},
    {"row_softmax_512", 5725488.8, 512.0 * 512},
    {"masked_neighbor_max_50", 677712.0, 50.0 * 50},
    {"masked_neighbor_max_128", 10863504.7, 128.0 * 128},
    {"fwd_bwd_step_24", 872566.8, 24.0 * 24},
    {"fwd_bwd_step_50", 5714256.6, 50.0 * 50},
};

double g_min_seconds = 0.2;

template <typename Fn>
double TimeNs(Fn fn) {
  fn();  // warm up
  int iters = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (secs >= g_min_seconds || iters >= (1 << 24)) {
      return secs * 1e9 / iters;
    }
    iters *= 2;
  }
}

struct Measurement {
  std::string kernel;
  int threads;
  double ns_per_op;
  double items;
};

void MeasureKernels(int threads, bool large, std::vector<Measurement>* out) {
  common::SetNumThreads(threads);
  common::Rng rng(1);
  // --large extends the dense sweeps to the sharded-serving city sizes
  // (n = 1024 and 4096, the ServingScale fixtures) so kernel cost at those
  // scales is on record next to the serving numbers.
  std::vector<int> matmul_sizes = {24, 50, 128, 256, 512};
  std::vector<int> softmax_sizes = {50, 128, 256, 512};
  if (large) {
    matmul_sizes.insert(matmul_sizes.end(), {1024, 4096});
    softmax_sizes.insert(softmax_sizes.end(), {1024, 4096});
  }
  for (int n : matmul_sizes) {
    const Tensor a = Tensor::RandomNormal({n, n}, 0, 1, &rng);
    const Tensor b = Tensor::RandomNormal({n, n}, 0, 1, &rng);
    volatile float sink = 0;
    const double ns = TimeNs([&] {
      Tensor c = tensor::MatMul(a, b);
      sink = sink + c.flat(0);
    });
    out->push_back({"matmul_" + std::to_string(n), threads, ns,
                    static_cast<double>(n) * n * n});
  }
  for (int n : softmax_sizes) {
    const Tensor a = Tensor::RandomNormal({n, n}, 0, 1, &rng);
    volatile float sink = 0;
    const double ns = TimeNs([&] {
      Tensor c = tensor::RowSoftmax(a);
      sink = sink + c.flat(0);
    });
    out->push_back({"row_softmax_" + std::to_string(n), threads, ns,
                    static_cast<double>(n) * n});
  }
  for (int n : {50, 128}) {
    const Tensor h = Tensor::RandomNormal({n, n}, 0, 1, &rng);
    Tensor mask = Tensor::Zeros({n, n});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        mask.at(i, j) = ((i + j) % 3 == 0) ? 1.0f : 0.0f;
      }
    }
    Variable hv = Variable::Constant(h);
    volatile float sink = 0;
    const double ns = TimeNs([&] {
      Variable o = core::MaskedNeighborMax(hv, mask);
      sink = sink + o.value().flat(0);
    });
    out->push_back({"masked_neighbor_max_" + std::to_string(n), threads, ns,
                    static_cast<double>(n) * n});
  }
  // Dense-vs-CSR density sweep: the same FCG-style aggregation (weights
  // with ~d% random edges plus self-loops against [n, n] features) timed on
  // both execution paths. The sparse/dense ratio at each point is what
  // StgnnConfig::sparse_density_threshold is calibrated against.
  for (int n : {128, 256, 512}) {
    for (int density : {5, 10, 25, 50}) {
      Tensor mask = tensor::Tensor::Zeros({n, n});
      for (int i = 0; i < n; ++i) {
        mask.at(i, i) = 1.0f;
        for (int j = 0; j < n; ++j) {
          if (rng.Uniform() < density / 100.0) mask.at(i, j) = 1.0f;
        }
      }
      const tensor::Csr csr = tensor::Csr::FromDense(mask);
      const Tensor x = Tensor::RandomNormal({n, n}, 0, 1, &rng);
      const auto pattern = std::make_shared<const tensor::Csr>(csr);
      Variable hv = Variable::Constant(x);
      const std::string suffix =
          "_n" + std::to_string(n) + "_d" + std::to_string(density);
      volatile float sink = 0;
      double ns = TimeNs([&] {
        Tensor c = tensor::MatMul(mask, x);
        sink = sink + c.flat(0);
      });
      out->push_back({"spmm_dense" + suffix, threads, ns,
                      static_cast<double>(n) * n * n});
      ns = TimeNs([&] {
        Tensor c = tensor::SpMM(csr, x);
        sink = sink + c.flat(0);
      });
      out->push_back({"spmm_sparse" + suffix, threads, ns,
                      static_cast<double>(csr.nnz()) * n});
      ns = TimeNs([&] {
        Variable o = core::MaskedNeighborMax(hv, mask);
        sink = sink + o.value().flat(0);
      });
      out->push_back({"neighbor_max_dense" + suffix, threads, ns,
                      static_cast<double>(n) * n});
      ns = TimeNs([&] {
        Variable o = core::MaskedNeighborMax(hv, pattern);
        sink = sink + o.value().flat(0);
      });
      out->push_back({"neighbor_max_sparse" + suffix, threads, ns,
                      static_cast<double>(n) * n});
    }
  }
  for (int n : {24, 50}) {
    core::AttentionGnnLayer layer(n, 4, &rng);
    Variable features =
        Variable::Constant(Tensor::RandomNormal({n, n}, 0, 1, &rng));
    Variable target =
        Variable::Constant(Tensor::RandomNormal({n, n}, 0, 1, &rng));
    volatile float sink = 0;
    const double ns = TimeNs([&] {
      layer.ZeroGrad();
      Variable o = layer.Forward(features);
      Variable loss = ag::MeanAll(ag::Square(ag::Sub(o, target)));
      loss.Backward();
      sink = sink + loss.value().item();
    });
    out->push_back({"fwd_bwd_step_" + std::to_string(n), threads, ns,
                    static_cast<double>(n) * n});
  }
}

int Run(const std::string& out_path, const std::string& trace_path,
        bool large) {
  std::vector<int> sweep = {1, 2, 4, common::HardwareThreads()};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

  if (!trace_path.empty()) {
    if (!common::trace::CompiledIn()) {
      std::fprintf(stderr,
                   "warning: built with STGNN_ENABLE_TRACING=OFF; the trace "
                   "will contain no spans\n");
    }
    common::trace::SetEnabled(true);
  }

  std::vector<Measurement> results;
  for (int threads : sweep) {
    std::fprintf(stderr, "measuring at %d thread(s)...\n", threads);
    MeasureKernels(threads, large, &results);
  }

  if (!trace_path.empty()) {
    common::trace::SetEnabled(false);
    const Status st = common::trace::WriteJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s (%llu spans recorded)\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(
                     common::trace::TotalRecorded()));
    std::fputs(common::counters::Format().c_str(), stderr);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"stgnn-bench-kernels-v1\",\n");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", common::HardwareThreads());
  std::fprintf(f, "  \"seed\": {\n");
  std::fprintf(f, "    \"flags\": \"-O2\",\n");
  std::fprintf(f, "    \"threads\": 1,\n");
  std::fprintf(f, "    \"kernels\": {\n");
  const size_t num_seed = sizeof(kSeedBaseline) / sizeof(kSeedBaseline[0]);
  for (size_t i = 0; i < num_seed; ++i) {
    const SeedEntry& e = kSeedBaseline[i];
    std::fprintf(f,
                 "      \"%s\": {\"ns_per_op\": %.1f, \"items_per_s\": "
                 "%.3e}%s\n",
                 e.kernel, e.ns_per_op, e.items / (e.ns_per_op * 1e-9),
                 i + 1 < num_seed ? "," : "");
  }
  std::fprintf(f, "    }\n  },\n");
  std::fprintf(f, "  \"current\": {\n");
  std::fprintf(f, "    \"flags\": \"-O3 -march=native\",\n");
  std::fprintf(f, "    \"runs\": [\n");
  for (size_t s = 0; s < sweep.size(); ++s) {
    std::fprintf(f, "      {\"threads\": %d, \"kernels\": {\n", sweep[s]);
    bool first = true;
    for (const Measurement& m : results) {
      if (m.threads != sweep[s]) continue;
      std::fprintf(f,
                   "%s        \"%s\": {\"ns_per_op\": %.1f, \"items_per_s\": "
                   "%.3e}",
                   first ? "" : ",\n", m.kernel.c_str(), m.ns_per_op,
                   m.items / (m.ns_per_op * 1e-9));
      first = false;
    }
    std::fprintf(f, "\n      }}%s\n", s + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace stgnn

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  std::string trace_path;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-seconds") == 0 && i + 1 < argc) {
      stgnn::g_min_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_baseline [--out PATH] [--min-seconds S] "
                   "[--trace-out PATH] [--large]\n");
      return 2;
    }
  }
  return stgnn::Run(out_path, trace_path, large);
}
