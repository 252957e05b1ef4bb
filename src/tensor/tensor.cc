#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "common/buffer_pool.h"
#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/kernels/kernels.h"

namespace stgnn::tensor {

namespace {

// Minimum elements per parallel chunk for elementwise kernels; anything
// smaller runs inline (no std::function, no pool) so tiny tensors pay
// nothing for the parallel substrate.
constexpr int64_t kElementGrain = 16384;

// Rows per chunk targeting roughly kElementGrain elements of work.
inline int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, kElementGrain / std::max<int64_t>(cols, 1));
}

}  // namespace

int64_t NumElements(const Shape& shape) {
  int64_t count = 1;
  for (int extent : shape) {
    STGNN_CHECK_GE(extent, 0);
    count *= extent;
  }
  return count;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor()
    : shape_{}, data_(common::BufferPool::Global()->AcquireZeroed(1)) {}

Tensor::~Tensor() {
  common::BufferPool::Global()->Release(std::move(data_));
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(common::BufferPool::Global()->AcquireZeroed(
          static_cast<size_t>(NumElements(shape_)))) {}

Tensor::Tensor(UninitializedTag, Shape shape)
    : shape_(std::move(shape)),
      data_(common::BufferPool::Global()->AcquireUninitialized(
          static_cast<size_t>(NumElements(shape_)))) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  STGNN_CHECK_EQ(NumElements(shape_), static_cast<int64_t>(data_.size()))
      << "shape " << ShapeToString(shape_) << " vs " << data_.size()
      << " elements";
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_),
      data_(common::BufferPool::Global()->AcquireUninitialized(
          other.data_.size())) {
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  if (data_.size() != other.data_.size()) {
    common::BufferPool::Global()->Release(std::move(data_));
    data_ = common::BufferPool::Global()->AcquireUninitialized(
        other.data_.size());
  }
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = std::move(other.shape_);
  // Recycle the overwritten buffer instead of letting the vector move
  // deallocate it.
  common::BufferPool::Global()->Release(std::move(data_));
  data_ = std::move(other.data_);
  return *this;
}

void Tensor::ReleaseStorage() {
  common::BufferPool::Global()->Release(std::move(data_));
  data_.clear();
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Uninitialized(Shape shape) {
  return Tensor(UninitializedTag{}, std::move(shape));
}

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(UninitializedTag{}, std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t;
  t.data_[0] = value;
  return t;
}

Tensor Tensor::Eye(int n) {
  STGNN_CHECK_GT(n, 0);
  Tensor t({n, n});
  for (int i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::FromVector(std::vector<float> values) {
  const int n = static_cast<int>(values.size());
  return Tensor({n}, std::move(values));
}

Tensor Tensor::RandomUniform(Shape shape, float lo, float hi,
                             common::Rng* rng) {
  STGNN_CHECK(rng != nullptr);
  Tensor t(UninitializedTag{}, std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::RandomNormal(Shape shape, float mean, float stddev,
                            common::Rng* rng) {
  STGNN_CHECK(rng != nullptr);
  Tensor t(UninitializedTag{}, std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Normal(mean, stddev));
  }
  return t;
}

int Tensor::dim(int axis) const {
  STGNN_CHECK_GE(axis, 0);
  STGNN_CHECK_LT(axis, ndim());
  return shape_[axis];
}

float Tensor::flat(int64_t index) const {
  STGNN_CHECK_GE(index, 0);
  STGNN_CHECK_LT(index, size());
  return data_[static_cast<size_t>(index)];
}

float& Tensor::flat(int64_t index) {
  STGNN_CHECK_GE(index, 0);
  STGNN_CHECK_LT(index, size());
  return data_[static_cast<size_t>(index)];
}

float& Tensor::at(int i) {
  STGNN_CHECK_EQ(ndim(), 1);
  return flat(i);
}

float Tensor::at(int i) const {
  STGNN_CHECK_EQ(ndim(), 1);
  return flat(i);
}

float& Tensor::at(int i, int j) {
  STGNN_CHECK_EQ(ndim(), 2);
  STGNN_CHECK_GE(i, 0);
  STGNN_CHECK_LT(i, shape_[0]);
  STGNN_CHECK_GE(j, 0);
  STGNN_CHECK_LT(j, shape_[1]);
  return data_[static_cast<size_t>(i) * shape_[1] + j];
}

float Tensor::at(int i, int j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(int i, int j, int k) {
  STGNN_CHECK_EQ(ndim(), 3);
  STGNN_CHECK_GE(i, 0);
  STGNN_CHECK_LT(i, shape_[0]);
  STGNN_CHECK_GE(j, 0);
  STGNN_CHECK_LT(j, shape_[1]);
  STGNN_CHECK_GE(k, 0);
  STGNN_CHECK_LT(k, shape_[2]);
  return data_[(static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k];
}

float Tensor::at(int i, int j, int k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float Tensor::item() const {
  STGNN_CHECK_EQ(size(), 1) << "item() on tensor with " << size()
                            << " elements";
  return data_[0];
}

Tensor Tensor::Reshape(Shape new_shape) const {
  int64_t known = 1;
  int infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      STGNN_CHECK_EQ(infer_axis, -1) << "multiple -1 extents in Reshape";
      infer_axis = static_cast<int>(i);
    } else {
      STGNN_CHECK_GE(new_shape[i], 0);
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    STGNN_CHECK_GT(known, 0);
    STGNN_CHECK_EQ(size() % known, 0)
        << "cannot infer axis in Reshape to " << ShapeToString(new_shape);
    new_shape[infer_axis] = static_cast<int>(size() / known);
  }
  STGNN_CHECK_EQ(NumElements(new_shape), size())
      << "Reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  std::vector<float> copy =
      common::BufferPool::Global()->AcquireUninitialized(data_.size());
  std::copy(data_.begin(), data_.end(), copy.begin());
  return Tensor(std::move(new_shape), std::move(copy));
}

Tensor Tensor::Transpose() const {
  STGNN_CHECK_EQ(ndim(), 2);
  STGNN_TRACE_SCOPE("Transpose");
  STGNN_COUNTER_INC("op.transpose");
  const int rows = shape_[0];
  const int cols = shape_[1];
  Tensor out = Tensor::Uninitialized({cols, rows});
  const float* src = data_.data();
  float* dst = out.mutable_data().data();
  // Parallel over output rows; each output row j gathers column j of the
  // source, so writes never overlap across chunks.
  common::ParallelFor(0, cols, RowGrain(rows), [&](int64_t jb, int64_t je) {
    for (int64_t j = jb; j < je; ++j) {
      for (int64_t i = 0; i < rows; ++i) {
        dst[j * rows + i] = src[i * cols + j];
      }
    }
  });
  return out;
}

Tensor Tensor::SliceRows(int begin, int end) const {
  STGNN_CHECK_GE(ndim(), 1);
  STGNN_CHECK_GE(begin, 0);
  STGNN_CHECK_LE(begin, end);
  STGNN_CHECK_LE(end, shape_[0]);
  Shape out_shape = shape_;
  out_shape[0] = end - begin;
  const int64_t row_size = shape_[0] == 0 ? 0 : size() / shape_[0];
  std::vector<float> out_data = common::BufferPool::Global()->AcquireUninitialized(
      static_cast<size_t>((end - begin) * row_size));
  std::copy(data_.begin() + static_cast<size_t>(begin * row_size),
            data_.begin() + static_cast<size_t>(end * row_size),
            out_data.begin());
  return Tensor(std::move(out_shape), std::move(out_data));
}

Tensor Tensor::Row(int i) const {
  STGNN_CHECK_EQ(ndim(), 2);
  return SliceRows(i, i + 1);
}

Tensor Tensor::Col(int j) const {
  STGNN_CHECK_EQ(ndim(), 2);
  STGNN_CHECK_GE(j, 0);
  STGNN_CHECK_LT(j, shape_[1]);
  Tensor out = Tensor::Uninitialized({shape_[0], 1});
  for (int i = 0; i < shape_[0]; ++i) out.at(i, 0) = at(i, j);
  return out;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

bool Tensor::AllClose(const Tensor& other, float tolerance) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string Tensor::ToString() const {
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t preview = std::min<int64_t>(size(), 16);
  for (int64_t i = 0; i < preview; ++i) {
    if (i > 0) out << ", ";
    out << data_[static_cast<size_t>(i)];
  }
  if (preview < size()) out << ", ...";
  out << "}";
  return out.str();
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (int i = 0; i < rank; ++i) {
    const int ai = i < rank - static_cast<int>(a.size())
                       ? 1
                       : a[i - (rank - static_cast<int>(a.size()))];
    const int bi = i < rank - static_cast<int>(b.size())
                       ? 1
                       : b[i - (rank - static_cast<int>(b.size()))];
    STGNN_CHECK(ai == bi || ai == 1 || bi == 1)
        << "incompatible broadcast " << ShapeToString(a) << " vs "
        << ShapeToString(b);
    out[i] = std::max(ai, bi);
  }
  return out;
}

namespace {

// Broadcast of two operands to an output shape, flattened into rows of the
// output's last (merged) axis. Output axes of extent 1 are dropped and
// adjacent axes on which each operand is either broadcast on both or read on
// both are merged, so the row, column, outer and same-shape cases all reduce
// to at most a couple of axes. Each operand then reads a row from a base
// offset computed once per row, with a column stride of 0 or 1.
struct BroadcastPlan {
  struct Axis {
    int64_t extent;
    int64_t stride_a;  // 0 where `a` is broadcast
    int64_t stride_b;
  };
  std::vector<Axis> axes;  // merged axes, outermost first; last = the row

  BroadcastPlan(const Shape& out, const Shape& a, const Shape& b) {
    const int rank = static_cast<int>(out.size());
    const int off_a = rank - static_cast<int>(a.size());
    const int off_b = rank - static_cast<int>(b.size());
    // Walk innermost first so each operand's stride is its running size.
    int64_t run_a = 1;
    int64_t run_b = 1;
    for (int d = rank - 1; d >= 0; --d) {
      if (out[d] == 1) continue;
      const bool read_a = d >= off_a && a[d - off_a] != 1;
      const bool read_b = d >= off_b && b[d - off_b] != 1;
      if (!axes.empty() && (axes.back().stride_a != 0) == read_a &&
          (axes.back().stride_b != 0) == read_b) {
        axes.back().extent *= out[d];
      } else {
        axes.push_back({out[d], read_a ? run_a : 0, read_b ? run_b : 0});
      }
      if (read_a) run_a *= out[d];
      if (read_b) run_b *= out[d];
    }
    std::reverse(axes.begin(), axes.end());
  }

  // Operand base offsets of output row `row`. The outermost axis takes the
  // quotient left over, so rank-2 operands need no division.
  void RowBase(int64_t row, int64_t* base_a, int64_t* base_b) const {
    int64_t ia = 0;
    int64_t ib = 0;
    const int leading = static_cast<int>(axes.size()) - 1;
    for (int k = leading - 1; k >= 1; --k) {
      const int64_t idx = row % axes[k].extent;
      row /= axes[k].extent;
      ia += idx * axes[k].stride_a;
      ib += idx * axes[k].stride_b;
    }
    if (leading >= 1) {
      ia += row * axes[0].stride_a;
      ib += row * axes[0].stride_b;
    }
    *base_a = ia;
    *base_b = ib;
  }
};

// dout[j] = fn(da[j * sa], db[j * sb]) for j < n, sa and sb each 0 or 1.
// `dout` may alias `da` (the in-place ops).
template <typename Fn>
inline void BroadcastRow(const float* da, int64_t sa, const float* db,
                         int64_t sb, float* dout, int64_t n, Fn fn) {
  if (sa != 0 && sb != 0) {
    for (int64_t j = 0; j < n; ++j) dout[j] = fn(da[j], db[j]);
  } else if (sa != 0) {
    const float y = db[0];
    for (int64_t j = 0; j < n; ++j) dout[j] = fn(da[j], y);
  } else if (sb != 0) {
    const float x = da[0];
    for (int64_t j = 0; j < n; ++j) dout[j] = fn(x, db[j]);
  } else {
    std::fill(dout, dout + n, fn(da[0], db[0]));
  }
}

// Writes fn(a, b) broadcast to `out_shape` into `dout`, fanned out over
// flat chunks of kElementGrain elements; a chunk walks its rows, or the
// pieces of rows it straddles. Every element is computed on its own, so the
// result is exact per element at any thread count.
template <typename Fn>
void BroadcastApply(const float* da, const Shape& sa, const float* db,
                    const Shape& sb, float* dout, const Shape& out_shape,
                    Fn fn) {
  const BroadcastPlan plan(out_shape, sa, sb);
  // A single-element output has no axes left: one row of one column.
  const BroadcastPlan::Axis inner =
      plan.axes.empty() ? BroadcastPlan::Axis{1, 0, 0} : plan.axes.back();
  const int64_t cols = inner.extent;
  const int64_t ca = inner.stride_a;
  const int64_t cb = inner.stride_b;
  common::ParallelFor(0, NumElements(out_shape), kElementGrain,
                      [&](int64_t lo, int64_t hi) {
    for (int64_t flat = lo; flat < hi;) {
      const int64_t row = flat / cols;
      const int64_t c0 = flat - row * cols;
      const int64_t n = std::min(cols - c0, hi - flat);
      int64_t base_a = 0;
      int64_t base_b = 0;
      plan.RowBase(row, &base_a, &base_b);
      BroadcastRow(da + base_a + c0 * ca, ca, db + base_b + c0 * cb, cb,
                   dout + flat, n, fn);
      flat += n;
    }
  });
}

// Applies `fn` elementwise over broadcast operands.
template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Fn fn) {
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  STGNN_COUNTER_ADD("elementwise.elems", out.size());
  if (out.size() == 0) return out;
  BroadcastApply(a.data().data(), a.shape(), b.data().data(), b.shape(),
                 out.mutable_data().data(), out_shape, fn);
  return out;
}

template <typename Fn>
Tensor UnaryMap(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  STGNN_COUNTER_ADD("elementwise.elems", out.size());
  const float* da = a.data().data();
  float* dout = out.mutable_data().data();
  common::ParallelFor(0, out.size(), kElementGrain,
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) dout[i] = fn(da[i]);
                      });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return std::max(x, y); });
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return std::min(x, y); });
}

Tensor Neg(const Tensor& a) {
  return UnaryMap(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::sqrt(x); });
}
Tensor Square(const Tensor& a) {
  return UnaryMap(a, [](float x) { return x * x; });
}
Tensor Abs(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::fabs(x); });
}
Tensor Relu(const Tensor& a) {
  return UnaryMap(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Elu(const Tensor& a, float alpha) {
  return UnaryMap(a, [alpha](float x) {
    return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f);
  });
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryMap(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Tanh(const Tensor& a) {
  return UnaryMap(a, [](float x) { return std::tanh(x); });
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  STGNN_CHECK_LE(lo, hi);
  return UnaryMap(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryMap(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryMap(a, [s](float x) { return x * s; });
}

namespace {

// a[i] = fn(a[i], broadcast(b)[i]). `b` must broadcast to a's shape.
template <typename Fn>
void BinaryInPlace(Tensor* a, const Tensor& b, Fn fn) {
  STGNN_CHECK(a != nullptr);
  STGNN_COUNTER_ADD("elementwise.elems", a->size());
  STGNN_CHECK(BroadcastShapes(a->shape(), b.shape()) == a->shape())
      << "in-place op: " << ShapeToString(b.shape())
      << " must broadcast to " << ShapeToString(a->shape());
  if (a->size() == 0) return;
  float* da = a->mutable_data().data();
  BroadcastApply(da, a->shape(), b.data().data(), b.shape(), da, a->shape(),
                 fn);
}

template <typename Fn>
void MapInPlace(Tensor* a, Fn fn) {
  STGNN_CHECK(a != nullptr);
  STGNN_COUNTER_ADD("elementwise.elems", a->size());
  float* da = a->mutable_data().data();
  common::ParallelFor(0, a->size(), kElementGrain,
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) da[i] = fn(da[i]);
                      });
}

}  // namespace

void AddInPlace(Tensor* a, const Tensor& b) {
  BinaryInPlace(a, b, [](float x, float y) { return x + y; });
}
void SubInPlace(Tensor* a, const Tensor& b) {
  BinaryInPlace(a, b, [](float x, float y) { return x - y; });
}
void MulInPlace(Tensor* a, const Tensor& b) {
  BinaryInPlace(a, b, [](float x, float y) { return x * y; });
}
void MulScalarInPlace(Tensor* a, float s) {
  MapInPlace(a, [s](float x) { return x * s; });
}
void AxpyInPlace(Tensor* a, float s, const Tensor& b) {
  STGNN_CHECK(a != nullptr);
  STGNN_CHECK(a->shape() == b.shape())
      << "AxpyInPlace " << ShapeToString(a->shape()) << " vs "
      << ShapeToString(b.shape());
  STGNN_COUNTER_ADD("elementwise.elems", a->size());
  float* da = a->mutable_data().data();
  const float* db = b.data().data();
  common::ParallelFor(0, a->size(), kElementGrain,
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          // Round s*b first, matching Add(a, MulScalar(b, s)).
                          const float sb = s * db[i];
                          da[i] = da[i] + sb;
                        }
                      });
}
void ReluInPlace(Tensor* a) {
  MapInPlace(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
void EluInPlace(Tensor* a, float alpha) {
  MapInPlace(a, [alpha](float x) {
    return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f);
  });
}

namespace {

using kernels::MatView;

// B as kMmPanel-wide column panels, each row-major with a fixed kMmPanel
// stride (the last panel is zero-padded per row), read from the view —
// a transposed B is gathered here, so it never exists transposed in full.
// The packed layout keeps the microkernel's streams contiguous regardless
// of n; the scratch buffer itself is pooled.
std::vector<float> PackPanels(MatView b, int k, int n) {
  constexpr int kMmPanel = kernels::kMmPanel;
  const int num_panels = (n + kMmPanel - 1) / kMmPanel;
  std::vector<float> packed = common::BufferPool::Global()->AcquireUninitialized(
      static_cast<size_t>(num_panels) * k * kMmPanel);
  common::ParallelFor(0, num_panels, 1, [&](int64_t qb, int64_t qe) {
    for (int64_t q = qb; q < qe; ++q) {
      const int j0 = static_cast<int>(q) * kMmPanel;
      const int w = std::min(kMmPanel, n - j0);
      float* dst = packed.data() + static_cast<size_t>(q) * k * kMmPanel;
      if (b.cs == 1) {
        for (int p = 0; p < k; ++p) {
          const float* src = b.data + p * b.rs + j0;
          std::copy(src, src + w, dst + static_cast<size_t>(p) * kMmPanel);
        }
      } else {
        // A transposed B is contiguous along p: gather it in 64-deep slabs
        // so the panel rows being written (a few KiB) stay in L1 while
        // every source column streams through them.
        constexpr int kPackDepth = 64;
        for (int p0 = 0; p0 < k; p0 += kPackDepth) {
          const int pe = std::min(k, p0 + kPackDepth);
          for (int jj = 0; jj < w; ++jj) {
            const MatView col = b.Offset(0, j0 + jj);
            for (int p = p0; p < pe; ++p) {
              dst[static_cast<size_t>(p) * kMmPanel + jj] = col.at(p, 0);
            }
          }
        }
      }
      if (w < kMmPanel) {
        for (int p = 0; p < k; ++p) {
          float* drow = dst + static_cast<size_t>(p) * kMmPanel;
          std::fill(drow + w, drow + kMmPanel, 0.0f);
        }
      }
    }
  });
  return packed;
}

// out[m, n] = A·B with both operands read through views. Shape picks the
// path; every path computes each output as the same p-ascending fma chain
// from +0.0f and hands it to exactly one thread, so the path, the ISA and
// the thread count never change a bit:
//   * row-vector (m < kMmRowTile): direct over column chunks — packing
//     B would cost more than the product, so a transposed B is read in
//     place by scalar chains;
//   * small (m*k*n <= mm_small_flops) with B contiguous along j: one
//     direct call, no packing;
//   * narrow (n < kMmPanel) with B contiguous along j: direct over row
//     chunks — a zero-padded panel would be mostly padding;
//   * panel, for everything else including a transposed B once there are
//     rows to amortise its gather: B packed into kMmPanel-wide panels,
//     rows fanned out.
Tensor MatMulViews(MatView a, MatView b, int m, int k, int n) {
  STGNN_TRACE_SCOPE("MatMul");
  STGNN_COUNTER_INC("op.matmul");
  STGNN_COUNTER_ADD("flops.matmul", int64_t{2} * m * k * n);
  STGNN_COUNTER_ADD("bytes.matmul_in",
                    (int64_t{4} * m * k) + (int64_t{4} * k * n));
  if (m == 0 || k == 0 || n == 0) return Tensor({m, n});
  // A single column (or a single row of B) is contiguous whichever way it
  // is stored.
  if (n == 1) b.cs = 1;
  const kernels::KernelTable& kt = kernels::Active();
  constexpr int kMmRowTile = kernels::kMmRowTile;
  constexpr int kMmPanel = kernels::kMmPanel;
  const int64_t flops = static_cast<int64_t>(m) * k * n;
  // Every path overwrites each output element exactly once.
  Tensor out = Tensor::Uninitialized({m, n});
  float* po = out.mutable_data().data();
  // Fan out so each chunk carries about the per-ISA chunk-flop target,
  // which keeps the dispatch cost negligible relative to the work.
  auto grain_for = [&](int64_t unit_flops, int64_t min_units) {
    return std::max<int64_t>(
        min_units, kt.mm_chunk_flops / std::max<int64_t>(unit_flops, 1));
  };

  if (m < kMmRowTile) {
    // Streaming B once dominates, so chunks carry about kElementGrain
    // elements like the elementwise ops; a transposed B keeps at least two
    // interleaved chains per chunk.
    const int64_t grain = std::max<int64_t>(b.cs == 1 ? kMmPanel : 2,
                                            kElementGrain / (int64_t{k} + m));
    common::ParallelFor(0, n, grain, [&](int64_t jb, int64_t je) {
      kt.matmul_direct(a, b.Offset(0, jb), po + jb, n, m, k,
                       static_cast<int>(je - jb));
    });
    return out;
  }
  if (b.cs == 1 && (flops <= kt.mm_small_flops || n < kMmPanel)) {
    const int64_t grain = flops <= kt.mm_small_flops
                              ? m
                              : grain_for(int64_t{2} * k * n, 8);
    common::ParallelFor(0, m, grain, [&](int64_t ib, int64_t ie) {
      kt.matmul_direct(a.Offset(ib, 0), b, po + ib * n, n,
                       static_cast<int>(ie - ib), k, n);
    });
    return out;
  }

  std::vector<float> packed = PackPanels(b, k, n);
  const int num_panels = (n + kMmPanel - 1) / kMmPanel;
  common::ParallelFor(0, m, grain_for(int64_t{2} * k * n, kMmRowTile),
                      [&](int64_t ib, int64_t ie) {
    for (int q = 0; q < num_panels; ++q) {
      const int j0 = q * kMmPanel;
      const int w = std::min(kMmPanel, n - j0);
      const float* panel =
          packed.data() + static_cast<size_t>(q) * k * kMmPanel;
      kt.matmul_panel_rows(a, panel, po, ib, ie, k, n, j0, w);
    }
  });
  common::BufferPool::Global()->Release(std::move(packed));
  return out;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_CHECK_EQ(b.ndim(), 2);
  STGNN_CHECK_EQ(a.dim(1), b.dim(0))
      << "MatMul " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(1);
  return MatMulViews({a.data().data(), k, 1}, {b.data().data(), n, 1}, m, k,
                     n);
}

Tensor MatMulABt(const Tensor& a, const Tensor& b) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_CHECK_EQ(b.ndim(), 2);
  STGNN_CHECK_EQ(a.dim(1), b.dim(1))
      << "MatMulABt " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape()) << "^T";
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(0);
  return MatMulViews({a.data().data(), k, 1}, {b.data().data(), 1, k}, m, k,
                     n);
}

Tensor MatMulAtB(const Tensor& a, const Tensor& b) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_CHECK_EQ(b.ndim(), 2);
  STGNN_CHECK_EQ(a.dim(0), b.dim(0))
      << "MatMulAtB " << ShapeToString(a.shape()) << "^T x "
      << ShapeToString(b.shape());
  const int m = a.dim(1);
  const int k = a.dim(0);
  const int n = b.dim(1);
  return MatMulViews({a.data().data(), 1, m}, {b.data().data(), n, 1}, m, k,
                     n);
}

Tensor SumAll(const Tensor& a) {
  const float* d = a.data().data();
  const int64_t n = a.size();
  // Per-chunk partial sums, combined in chunk order. The chunk
  // decomposition depends only on (n, grain), so the result is bit-stable
  // across thread counts; single-chunk inputs follow the plain serial sum.
  const int64_t chunks = common::NumChunks(0, n, kElementGrain);
  if (chunks <= 1) {
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) total += d[i];
    return Tensor::Scalar(static_cast<float>(total));
  }
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  common::ParallelForChunks(0, n, kElementGrain,
                            [&](int64_t c, int64_t lo, int64_t hi) {
                              double s = 0.0;
                              for (int64_t i = lo; i < hi; ++i) s += d[i];
                              partial[static_cast<size_t>(c)] = s;
                            });
  double total = 0.0;
  for (double p : partial) total += p;
  return Tensor::Scalar(static_cast<float>(total));
}

Tensor MeanAll(const Tensor& a) {
  STGNN_CHECK_GT(a.size(), 0);
  return Tensor::Scalar(SumAll(a).item() / static_cast<float>(a.size()));
}

namespace {

template <typename Cmp>
float ExtremeAll(const Tensor& a, float init, Cmp pick) {
  STGNN_CHECK_GT(a.size(), 0);
  const float* d = a.data().data();
  const int64_t n = a.size();
  const int64_t chunks = common::NumChunks(0, n, kElementGrain);
  std::vector<float> partial(static_cast<size_t>(chunks), init);
  common::ParallelForChunks(0, n, kElementGrain,
                            [&](int64_t c, int64_t lo, int64_t hi) {
                              float best = init;
                              for (int64_t i = lo; i < hi; ++i) {
                                best = pick(best, d[i]);
                              }
                              partial[static_cast<size_t>(c)] = best;
                            });
  float best = init;
  for (float p : partial) best = pick(best, p);
  return best;
}

}  // namespace

float MaxAll(const Tensor& a) {
  return ExtremeAll(a, -std::numeric_limits<float>::infinity(),
                    [](float x, float y) { return std::max(x, y); });
}

float MinAll(const Tensor& a) {
  return ExtremeAll(a, std::numeric_limits<float>::infinity(),
                    [](float x, float y) { return std::min(x, y); });
}

namespace {

template <typename Init, typename Accum>
Tensor ReduceAxis2d(const Tensor& a, int axis, bool keepdims, Init init,
                    Accum accum) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_CHECK(axis == 0 || axis == 1);
  const int rows = a.dim(0);
  const int cols = a.dim(1);
  const int out_len = axis == 0 ? cols : rows;
  // Every slot is assigned exactly once below, so the buffer can start
  // uninitialised.
  std::vector<float> out = common::BufferPool::Global()->AcquireUninitialized(
      static_cast<size_t>(out_len));
  const float* d = a.data().data();
  // Each output slot is owned by exactly one chunk, and its accumulation
  // order (ascending over the reduced axis) never depends on the thread
  // count.
  if (axis == 1) {
    common::ParallelFor(0, rows, RowGrain(cols), [&](int64_t ib, int64_t ie) {
      for (int64_t i = ib; i < ie; ++i) {
        float slot = init();
        const float* row = d + i * cols;
        for (int j = 0; j < cols; ++j) slot = accum(slot, row[j]);
        out[static_cast<size_t>(i)] = slot;
      }
    });
  } else {
    common::ParallelFor(0, cols, RowGrain(rows), [&](int64_t jb, int64_t je) {
      for (int64_t j = jb; j < je; ++j) {
        float slot = init();
        for (int64_t i = 0; i < rows; ++i) slot = accum(slot, d[i * cols + j]);
        out[static_cast<size_t>(j)] = slot;
      }
    });
  }
  Shape shape;
  if (keepdims) {
    shape = axis == 0 ? Shape{1, cols} : Shape{rows, 1};
  } else {
    shape = Shape{out_len};
  }
  return Tensor(std::move(shape), std::move(out));
}

}  // namespace

Tensor SumAxis(const Tensor& a, int axis, bool keepdims) {
  return ReduceAxis2d(
      a, axis, keepdims, [] { return 0.0f; },
      [](float acc, float v) { return acc + v; });
}

Tensor MeanAxis(const Tensor& a, int axis, bool keepdims) {
  const int denom = axis == 0 ? a.dim(0) : a.dim(1);
  STGNN_CHECK_GT(denom, 0);
  return MulScalar(SumAxis(a, axis, keepdims), 1.0f / denom);
}

Tensor MaxAxis(const Tensor& a, int axis, bool keepdims) {
  return ReduceAxis2d(
      a, axis, keepdims,
      [] { return -std::numeric_limits<float>::infinity(); },
      [](float acc, float v) { return std::max(acc, v); });
}

Tensor RowSoftmax(const Tensor& a) {
  STGNN_CHECK_EQ(a.ndim(), 2);
  STGNN_TRACE_SCOPE("RowSoftmax");
  STGNN_COUNTER_INC("op.row_softmax");
  const int rows = a.dim(0);
  const int cols = a.dim(1);
  STGNN_CHECK_GT(cols, 0);
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* src = a.data().data();
  float* dst = out.mutable_data().data();
  common::ParallelFor(0, rows, common::GrainFor(rows, cols),
                      [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      const float* in_row = src + i * cols;
      float* out_row = dst + i * cols;
      float row_max = -std::numeric_limits<float>::infinity();
      for (int j = 0; j < cols; ++j) row_max = std::max(row_max, in_row[j]);
      double denom = 0.0;
      for (int j = 0; j < cols; ++j) {
        const float e = std::exp(in_row[j] - row_max);
        out_row[j] = e;
        denom += e;
      }
      for (int j = 0; j < cols; ++j) {
        out_row[j] = static_cast<float>(out_row[j] / denom);
      }
    }
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  STGNN_CHECK(!parts.empty());
  STGNN_CHECK(axis == 0 || axis == 1);
  for (const auto& p : parts) STGNN_CHECK_EQ(p.ndim(), 2);
  if (axis == 0) {
    const int cols = parts[0].dim(1);
    int rows = 0;
    for (const auto& p : parts) {
      STGNN_CHECK_EQ(p.dim(1), cols);
      rows += p.dim(0);
    }
    Tensor out = Tensor::Uninitialized({rows, cols});
    auto& dout = out.mutable_data();
    size_t offset = 0;
    for (const auto& p : parts) {
      std::copy(p.data().begin(), p.data().end(), dout.begin() + offset);
      offset += p.data().size();
    }
    return out;
  }
  const int rows = parts[0].dim(0);
  int cols = 0;
  for (const auto& p : parts) {
    STGNN_CHECK_EQ(p.dim(0), rows);
    STGNN_CHECK_EQ(p.size(), NumElements(p.shape())) << "hollow Concat part";
    cols += p.dim(1);
  }
  Tensor out = Tensor::Uninitialized({rows, cols});
  float* dout = out.mutable_data().data();
  common::ParallelFor(0, rows, RowGrain(cols), [&](int64_t ib, int64_t ie) {
    for (int64_t i = ib; i < ie; ++i) {
      float* drow = dout + i * cols;
      for (const auto& p : parts) {
        const int w = p.dim(1);
        const float* src = p.data().data() + i * w;
        drow = std::copy(src, src + w, drow);
      }
    }
  });
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  STGNN_CHECK(!parts.empty());
  const Shape& base = parts[0].shape();
  for (const auto& p : parts) STGNN_CHECK(p.shape() == base);
  Shape out_shape;
  out_shape.push_back(static_cast<int>(parts.size()));
  out_shape.insert(out_shape.end(), base.begin(), base.end());
  Tensor out = Tensor::Uninitialized(std::move(out_shape));
  auto& dout = out.mutable_data();
  size_t offset = 0;
  for (const auto& p : parts) {
    std::copy(p.data().begin(), p.data().end(), dout.begin() + offset);
    offset += p.data().size();
  }
  return out;
}

}  // namespace stgnn::tensor
