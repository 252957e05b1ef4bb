// Parity tests for the parallel kernel substrate: every parallelised kernel
// must produce bit-identical results at every thread count (the chunk
// decomposition and per-element accumulation order never depend on the pool
// size), plus gradchecks over the parallelised aggregators.

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aggregators.h"
#include "gradcheck.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"

namespace stgnn {
namespace {

using autograd::Variable;
namespace ag = stgnn::autograd;
using tensor::Tensor;

constexpr int kThreadCounts[] = {1, 2, 7};

// Restores the ambient pool size when a test ends.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(common::GetNumThreads()) {}
  ~ThreadGuard() { common::SetNumThreads(saved_); }

 private:
  int saved_;
};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// Runs `fn` at 1/2/7 threads and asserts all results are bit-identical to
// the serial one.
void ExpectThreadCountInvariant(const std::function<Tensor()>& fn) {
  ThreadGuard guard;
  common::SetNumThreads(1);
  const Tensor serial = fn();
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    const Tensor parallel = fn();
    EXPECT_TRUE(BitIdentical(serial, parallel))
        << "kernel diverges at " << threads << " threads";
  }
}

// --- Reference loops for the broadcast, gradient-reduce and concat kernels.
// These are the per-element multi-index loops the row-strided kernels
// replaced; the kernels must match them bit for bit.

std::vector<int64_t> RefStrides(const tensor::Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

tensor::Shape RefAligned(const tensor::Shape& s, int rank) {
  tensor::Shape r(rank, 1);
  std::copy(s.begin(), s.end(), r.begin() + (rank - s.size()));
  return r;
}

template <typename Fn>
Tensor RefBroadcast(const Tensor& a, const Tensor& b, Fn fn) {
  const tensor::Shape out_shape = tensor::BroadcastShapes(a.shape(), b.shape());
  Tensor out(out_shape);
  const int rank = static_cast<int>(out_shape.size());
  const tensor::Shape sa = RefAligned(a.shape(), rank);
  const tensor::Shape sb = RefAligned(b.shape(), rank);
  const auto stra = RefStrides(sa);
  const auto strb = RefStrides(sb);
  std::vector<int> index(rank, 0);
  for (int64_t flat = 0; flat < out.size(); ++flat) {
    int64_t ia = 0;
    int64_t ib = 0;
    for (int d = 0; d < rank; ++d) {
      ia += (sa[d] == 1 ? 0 : index[d]) * stra[d];
      ib += (sb[d] == 1 ? 0 : index[d]) * strb[d];
    }
    out.mutable_data()[flat] = fn(a.data()[ia], b.data()[ib]);
    for (int d = rank - 1; d >= 0; --d) {
      if (++index[d] < out_shape[d]) break;
      index[d] = 0;
    }
  }
  return out;
}

Tensor RefReduceGradToShape(const Tensor& grad, const tensor::Shape& target) {
  if (grad.shape() == target) return grad;
  const int rank = grad.ndim();
  const tensor::Shape aligned = RefAligned(target, rank);
  Tensor out(aligned);
  const auto ostrides = RefStrides(aligned);
  std::vector<int> index(rank, 0);
  for (int64_t flat = 0; flat < grad.size(); ++flat) {
    int64_t oflat = 0;
    for (int d = 0; d < rank; ++d) {
      oflat += (aligned[d] == 1 ? 0 : index[d]) * ostrides[d];
    }
    out.mutable_data()[oflat] += grad.data()[flat];
    for (int d = rank - 1; d >= 0; --d) {
      if (++index[d] < grad.dim(d)) break;
      index[d] = 0;
    }
  }
  return out.Reshape(target);
}

Tensor RefColumns(const Tensor& a, int begin, int end) {
  Tensor out({a.dim(0), end - begin});
  for (int i = 0; i < a.dim(0); ++i) {
    for (int j = begin; j < end; ++j) out.at(i, j - begin) = a.at(i, j);
  }
  return out;
}

// Bitwise equality, except that any NaN matches any NaN. When a sum meets
// two NaNs of different payloads (the input NaN and the default NaN of
// Inf + -Inf), which payload survives depends on the operand order the
// compiler picks for the commutative add instruction, which the source
// does not fix; a sanitizer build picks differently from an optimised one.
bool BitIdenticalUpToNanPayload(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
  }
  return true;
}

// Normal values with -0.0, +/-Inf, NaN, a denormal and +0.0 scattered in.
Tensor WithSpecialValues(const tensor::Shape& shape, common::Rng* rng) {
  Tensor t = Tensor::RandomNormal(shape, 0, 1, rng);
  const float specials[] = {-0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min() * 7,
                            0.0f};
  auto& d = t.mutable_data();
  for (size_t i = 0; i < d.size(); i += 97) d[i] = specials[(i / 97) % 6];
  // Single-element operands still need a special value to be tested.
  if (d.size() == 1) d[0] = -0.0f;
  return t;
}

TEST(ParallelParityTest, BroadcastReduceConcatMatchReference) {
  ThreadGuard guard;
  common::Rng rng(17);
  using tensor::Shape;
  auto add = [](float x, float y) { return x + y; };
  auto sub = [](float x, float y) { return x - y; };
  auto mul = [](float x, float y) { return x * y; };
  auto div = [](float x, float y) { return x / y; };
  auto max = [](float x, float y) { return std::max(x, y); };
  auto min = [](float x, float y) { return std::min(x, y); };
  // Each shape spans several kElementGrain chunks, along rows, along one
  // long row and along one long column.
  const int shapes[][2] = {{300, 700}, {1, 70000}, {70000, 1}};
  for (const auto& rc : shapes) {
    const int r = rc[0];
    const int c = rc[1];
    SCOPED_TRACE(::testing::Message() << r << "x" << c);
    const Shape full{r, c};
    const Shape pairs[][2] = {{full, {1, c}}, {full, {r, 1}},
                              {{r, 1}, {1, c}}, {{1, c}, {r, 1}},
                              {{c}, full},      {{1, 1}, full}};
    for (const auto& pair : pairs) {
      const Tensor a = WithSpecialValues(pair[0], &rng);
      const Tensor b = WithSpecialValues(pair[1], &rng);
      SCOPED_TRACE(tensor::ShapeToString(a.shape()) + " with " +
                   tensor::ShapeToString(b.shape()));
      const Tensor want[] = {RefBroadcast(a, b, add), RefBroadcast(a, b, sub),
                             RefBroadcast(a, b, mul), RefBroadcast(a, b, div),
                             RefBroadcast(a, b, max), RefBroadcast(a, b, min),
                             RefBroadcast(b, a, sub), RefBroadcast(b, a, div)};
      // In place, the wider operand is the destination.
      const bool a_full = a.shape() == want[0].shape();
      const Tensor& dst = a_full ? a : b;
      const Tensor& src = a_full ? b : a;
      const bool in_place = dst.shape() == want[0].shape();
      const Tensor want_in_place[] = {RefBroadcast(dst, src, add),
                                      RefBroadcast(dst, src, sub),
                                      RefBroadcast(dst, src, mul)};
      for (int threads : kThreadCounts) {
        common::SetNumThreads(threads);
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        EXPECT_TRUE(BitIdentical(tensor::Add(a, b), want[0]));
        EXPECT_TRUE(BitIdentical(tensor::Sub(a, b), want[1]));
        EXPECT_TRUE(BitIdentical(tensor::Mul(a, b), want[2]));
        EXPECT_TRUE(BitIdentical(tensor::Div(a, b), want[3]));
        EXPECT_TRUE(BitIdentical(tensor::Maximum(a, b), want[4]));
        EXPECT_TRUE(BitIdentical(tensor::Minimum(a, b), want[5]));
        EXPECT_TRUE(BitIdentical(tensor::Sub(b, a), want[6]));
        EXPECT_TRUE(BitIdentical(tensor::Div(b, a), want[7]));
        if (!in_place) continue;
        Tensor got = dst;
        tensor::AddInPlace(&got, src);
        EXPECT_TRUE(BitIdentical(got, want_in_place[0]));
        got = dst;
        tensor::SubInPlace(&got, src);
        EXPECT_TRUE(BitIdentical(got, want_in_place[1]));
        got = dst;
        tensor::MulInPlace(&got, src);
        EXPECT_TRUE(BitIdentical(got, want_in_place[2]));
      }
    }

    const Tensor grad = WithSpecialValues(full, &rng);
    // Finite values too, so the sums are not all NaN and every bit of the
    // summation order shows.
    const Tensor finite = Tensor::RandomNormal(full, 0, 1, &rng);
    for (const Shape& target :
         {Shape{r, 1}, Shape{1, c}, Shape{c}, Shape{1, 1}, Shape{}}) {
      SCOPED_TRACE("reduce to " + tensor::ShapeToString(target));
      const Tensor want = RefReduceGradToShape(grad, target);
      const Tensor want_finite = RefReduceGradToShape(finite, target);
      for (int threads : kThreadCounts) {
        common::SetNumThreads(threads);
        EXPECT_TRUE(BitIdenticalUpToNanPayload(
            autograd::ReduceGradToShape(grad, target), want))
            << threads << " threads";
        EXPECT_TRUE(BitIdentical(autograd::ReduceGradToShape(finite, target),
                                 want_finite))
            << threads << " threads";
      }
    }

    // SumAxisKeepdims expands its gradient as 0.0f + g.
    for (int axis : {0, 1}) {
      const Tensor x = WithSpecialValues(full, &rng);
      const Tensor w = WithSpecialValues(axis == 0 ? Shape{1, c} : Shape{r, 1},
                                         &rng);
      const Tensor want = RefBroadcast(Tensor::Zeros(full), w, add);
      for (int threads : kThreadCounts) {
        common::SetNumThreads(threads);
        Variable xv = Variable::Parameter(x);
        ag::SumAll(ag::Mul(ag::SumAxisKeepdims(xv, axis), Variable::Constant(w)))
            .Backward();
        EXPECT_TRUE(BitIdentical(xv.grad(), want))
            << "axis " << axis << ", " << threads << " threads";
      }
    }
  }

  // Concat along columns of parts 1, 17 and 300 wide; the middle part does
  // not require grad.
  const int rows = 300;
  const Tensor p0 = WithSpecialValues({rows, 1}, &rng);
  const Tensor p1 = WithSpecialValues({rows, 17}, &rng);
  const Tensor p2 = WithSpecialValues({rows, 300}, &rng);
  const Tensor w = WithSpecialValues({rows, 318}, &rng);
  Tensor want_fwd({rows, 318});
  for (int i = 0; i < rows; ++i) {
    want_fwd.at(i, 0) = p0.at(i, 0);
    for (int j = 0; j < 17; ++j) want_fwd.at(i, 1 + j) = p1.at(i, j);
    for (int j = 0; j < 300; ++j) want_fwd.at(i, 18 + j) = p2.at(i, j);
  }
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    SCOPED_TRACE(::testing::Message() << "concat at " << threads << " threads");
    EXPECT_TRUE(BitIdentical(tensor::Concat({p0, p1, p2}, 1), want_fwd));
    Variable v0 = Variable::Parameter(p0);
    Variable v1 = Variable::Constant(p1);
    Variable v2 = Variable::Parameter(p2);
    Variable cat = ag::Concat({v0, v1, v2}, 1);
    EXPECT_TRUE(BitIdentical(cat.value(), want_fwd));
    // d(sum(cat * w))/d(cat) is w, so each part's gradient is its slice of w.
    ag::SumAll(ag::Mul(cat, Variable::Constant(w))).Backward();
    EXPECT_TRUE(BitIdentical(v0.grad(), RefColumns(w, 0, 1)));
    EXPECT_TRUE(BitIdentical(v2.grad(), RefColumns(w, 18, 318)));
    EXPECT_FALSE(v1.requires_grad());
  }
}

TEST(ParallelParityTest, MatMulOddSizes) {
  common::Rng rng(11);
  // Odd shapes straddle the row-tile and panel boundaries; the big ones
  // exercise the packed path, the small ones the plain path.
  const int shapes[][3] = {{1, 1, 1},   {3, 5, 2},    {17, 23, 9},
                           {33, 65, 17}, {64, 64, 64}, {129, 67, 255},
                           {256, 128, 96}};
  for (const auto& s : shapes) {
    const Tensor a = Tensor::RandomNormal({s[0], s[1]}, 0, 1, &rng);
    const Tensor b = Tensor::RandomNormal({s[1], s[2]}, 0, 1, &rng);
    ExpectThreadCountInvariant([&] { return tensor::MatMul(a, b); });
  }
}

TEST(ParallelParityTest, MatMulEmptyAndDegenerate) {
  ExpectThreadCountInvariant([] {
    return tensor::MatMul(Tensor::Zeros({0, 5}), Tensor::Zeros({5, 3}));
  });
  ExpectThreadCountInvariant([] {
    return tensor::MatMul(Tensor::Zeros({4, 0}), Tensor::Zeros({0, 3}));
  });
  ExpectThreadCountInvariant([] {
    return tensor::MatMul(Tensor::Zeros({3, 5}), Tensor::Zeros({5, 0}));
  });
  // k = 0 must still yield exact zeros.
  const Tensor z = tensor::MatMul(Tensor::Zeros({4, 0}), Tensor::Zeros({0, 3}));
  EXPECT_TRUE(z.AllClose(Tensor::Zeros({4, 3}), 0.0f));
}

TEST(ParallelParityTest, MatMulMatchesNaiveReference) {
  common::Rng rng(12);
  const int m = 71, k = 93, n = 129;
  const Tensor a = Tensor::RandomNormal({m, k}, 0, 1, &rng);
  const Tensor b = Tensor::RandomNormal({k, n}, 0, 1, &rng);
  const Tensor got = tensor::MatMul(a, b);
  Tensor want({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      want.at(i, j) = acc;
    }
  }
  EXPECT_TRUE(got.AllClose(want, 1e-3f));
}

TEST(ParallelParityTest, ElementwiseKernels) {
  common::Rng rng(13);
  for (const tensor::Shape& shape :
       {tensor::Shape{1, 1}, tensor::Shape{17, 23}, tensor::Shape{300, 301}}) {
    const Tensor a = Tensor::RandomNormal(shape, 0, 1, &rng);
    const Tensor b = Tensor::RandomNormal(shape, 0, 1, &rng);
    ExpectThreadCountInvariant([&] { return tensor::Add(a, b); });
    ExpectThreadCountInvariant([&] { return tensor::Mul(a, b); });
    ExpectThreadCountInvariant([&] { return tensor::Maximum(a, b); });
    ExpectThreadCountInvariant([&] { return tensor::Exp(a); });
    ExpectThreadCountInvariant([&] { return tensor::Relu(a); });
    ExpectThreadCountInvariant([&] { return tensor::Sigmoid(a); });
    ExpectThreadCountInvariant([&] { return a.Transpose(); });
  }
  const Tensor empty({0});
  ExpectThreadCountInvariant([&] { return tensor::Neg(empty); });
}

TEST(ParallelParityTest, ReductionsAndSoftmax) {
  common::Rng rng(14);
  for (const tensor::Shape& shape :
       {tensor::Shape{1, 1}, tensor::Shape{7, 351}, tensor::Shape{351, 7},
        tensor::Shape{129, 200}}) {
    const Tensor a = Tensor::RandomNormal(shape, 0, 1, &rng);
    ExpectThreadCountInvariant([&] { return tensor::RowSoftmax(a); });
    for (int axis : {0, 1}) {
      ExpectThreadCountInvariant([&] { return tensor::SumAxis(a, axis); });
      ExpectThreadCountInvariant([&] { return tensor::MeanAxis(a, axis); });
      ExpectThreadCountInvariant([&] { return tensor::MaxAxis(a, axis); });
    }
    ExpectThreadCountInvariant([&] { return tensor::SumAll(a); });
    ExpectThreadCountInvariant(
        [&] { return Tensor::Scalar(tensor::MaxAll(a)); });
    ExpectThreadCountInvariant(
        [&] { return Tensor::Scalar(tensor::MinAll(a)); });
  }
  // Large flat tensor: the chunked SumAll must agree with itself across
  // thread counts (the decomposition is thread-count independent).
  const Tensor big = Tensor::RandomNormal({100000}, 0, 1, &rng);
  ExpectThreadCountInvariant([&] { return tensor::SumAll(big); });
}

TEST(ParallelParityTest, MaskedNeighborMaxForwardAndBackward) {
  common::Rng rng(15);
  const int n = 37, f = 19;
  const Tensor h = Tensor::RandomNormal({n, f}, 0, 1, &rng);
  Tensor mask = Tensor::Zeros({n, n});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      mask.at(i, j) = ((i * 7 + j) % 3 == 0) ? 1.0f : 0.0f;
    }
  }
  ExpectThreadCountInvariant([&] {
    return core::MaskedNeighborMax(Variable::Constant(h), mask).value();
  });
  // Backward scatter parity.
  ExpectThreadCountInvariant([&] {
    Variable hv = Variable::Parameter(h);
    Variable loss = ag::SumAll(core::MaskedNeighborMax(hv, mask));
    loss.Backward();
    return hv.grad();
  });
}

TEST(ParallelParityTest, SoftmaxBackward) {
  common::Rng rng(16);
  const Tensor x = Tensor::RandomNormal({41, 53}, 0, 1, &rng);
  const Tensor w = Tensor::RandomNormal({41, 53}, 0, 1, &rng);
  ExpectThreadCountInvariant([&] {
    Variable xv = Variable::Parameter(x);
    Variable loss =
        ag::SumAll(ag::Mul(ag::RowSoftmax(xv), Variable::Constant(w)));
    loss.Backward();
    return xv.grad();
  });
}

TEST(ParallelGradcheckTest, MaskedNeighborMaxGradients) {
  ThreadGuard guard;
  common::Rng rng(17);
  const int n = 6, f = 4;
  Tensor mask = Tensor::Zeros({n, n});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      mask.at(i, j) = ((i + j) % 2 == 0) ? 1.0f : 0.0f;
    }
  }
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    testing::ExpectGradientsClose(
        [&mask](const std::vector<Variable>& inputs) {
          return ag::MeanAll(
              ag::Square(core::MaskedNeighborMax(inputs[0], mask)));
        },
        {Tensor::RandomNormal({n, f}, 0, 1, &rng)});
  }
}

TEST(ParallelGradcheckTest, AttentionAggregatorGradients) {
  ThreadGuard guard;
  common::Rng rng(18);
  const int n = 5;
  core::AttentionGnnLayer layer(n, 2, &rng);
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    testing::ExpectGradientsClose(
        [&layer](const std::vector<Variable>& inputs) {
          return ag::MeanAll(ag::Square(layer.Forward(inputs[0])));
        },
        {Tensor::RandomNormal({n, n}, 0, 0.5f, &rng)});
  }
}

TEST(ParallelGradcheckTest, FlowAggregatorGradients) {
  ThreadGuard guard;
  common::Rng rng(19);
  const int n = 5;
  core::FlowGnnLayer layer(n, &rng);
  for (int threads : kThreadCounts) {
    common::SetNumThreads(threads);
    testing::ExpectGradientsClose(
        [&layer](const std::vector<Variable>& inputs) {
          return ag::MeanAll(
              ag::Square(layer.Forward(inputs[0], inputs[1])));
        },
        {Tensor::RandomNormal({n, n}, 0, 0.5f, &rng),
         Tensor::RandomUniform({n, n}, 0, 1, &rng)});
  }
}

}  // namespace
}  // namespace stgnn
