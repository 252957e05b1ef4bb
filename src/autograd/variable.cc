#include "autograd/variable.h"

#include <algorithm>
#include <unordered_set>

#include "common/counters.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace stgnn::autograd {

using tensor::Shape;
using tensor::Tensor;

namespace {

// Grain matching the tensor library's elementwise kernels.
constexpr int64_t kReduceGrain = 16384;

// A run of adjacent grad axes that the target either keeps or sums away.
struct ReduceAxis {
  int64_t extent;
  int64_t stride;  // in grad
};

// Grad offset of multi-index `x` over `axes` (outermost first). The
// outermost axis takes the quotient left over, so one axis needs no
// division.
int64_t AxesOffset(const std::vector<ReduceAxis>& axes, int64_t x) {
  int64_t offset = 0;
  for (size_t k = axes.size(); k-- > 1;) {
    offset += (x % axes[k].extent) * axes[k].stride;
    x /= axes[k].extent;
  }
  if (!axes.empty()) offset += x * axes[0].stride;
  return offset;
}

int64_t AxesSize(const std::vector<ReduceAxis>& axes) {
  int64_t size = 1;
  for (const ReduceAxis& axis : axes) size *= axis.extent;
  return size;
}

}  // namespace

Tensor ReduceGradToShape(const Tensor& grad, const Shape& target_shape) {
  if (grad.shape() == target_shape) return grad;
  STGNN_TRACE_SCOPE("ReduceGrad");
  // Align target to grad's rank with leading 1s; the axes where its extent
  // is 1 (or absent) are summed. Grad axes of extent 1 are dropped and
  // adjacent axes of the same kind merged, leaving alternating runs.
  const int rank = grad.ndim();
  const int offset = rank - static_cast<int>(target_shape.size());
  STGNN_CHECK_GE(offset, 0);
  std::vector<ReduceAxis> kept;
  std::vector<ReduceAxis> summed;
  bool inner_kept = false;
  bool last_kept = false;
  int64_t run = 1;
  for (int d = rank - 1; d >= 0; --d) {
    const int extent = grad.dim(d);
    const int t = d >= offset ? target_shape[d - offset] : 1;
    STGNN_CHECK(t == extent || t == 1)
        << "cannot reduce " << tensor::ShapeToString(grad.shape()) << " to "
        << tensor::ShapeToString(target_shape);
    if (extent == 1) continue;
    const bool keep = t != 1;
    std::vector<ReduceAxis>& axes = keep ? kept : summed;
    if (run > 1 && keep == last_kept) {
      axes.back().extent *= extent;
    } else {
      if (run == 1) inner_kept = keep;
      axes.push_back({extent, run});
    }
    last_kept = keep;
    run *= extent;
  }
  std::reverse(kept.begin(), kept.end());
  std::reverse(summed.begin(), summed.end());

  // Each output element is owned by one chunk and sums its inputs in
  // ascending flat index from +0.0f, the order of one serial pass over the
  // gradient (and SumAxis's), so the bits do not depend on the thread count.
  Tensor out = Tensor::Uninitialized(target_shape);
  float* po = out.mutable_data().data();
  const float* pg = grad.data().data();
  const int64_t outputs = out.size();
  if (grad.size() == 0) {
    std::fill(po, po + outputs, 0.0f);
    return out;
  }
  if (!inner_kept) {
    // The innermost run is summed and contiguous: each output adds up one
    // contiguous slice per outer summed index, in turn.
    const int64_t inner = summed.empty() ? 1 : summed.back().extent;
    if (!summed.empty()) summed.pop_back();
    const int64_t outer = AxesSize(summed);
    const int64_t grain =
        std::max<int64_t>(1, kReduceGrain / std::max<int64_t>(1, outer * inner));
    common::ParallelFor(0, outputs, grain, [&](int64_t ob, int64_t oe) {
      for (int64_t o = ob; o < oe; ++o) {
        const int64_t base = AxesOffset(kept, o);
        float acc = 0.0f;
        for (int64_t r = 0; r < outer; ++r) {
          const float* src = pg + base + AxesOffset(summed, r);
          for (int64_t j = 0; j < inner; ++j) acc += src[j];
        }
        po[o] = acc;
      }
    });
    return out;
  }
  // The innermost run is kept and contiguous in both grad and output: each
  // chunk accumulates whole summed slices into its piece of output rows.
  const int64_t cols = kept.back().extent;
  kept.pop_back();
  const int64_t reduced = AxesSize(summed);
  const int64_t grain = std::max<int64_t>(1, kReduceGrain / reduced);
  common::ParallelFor(0, outputs, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi;) {
      const int64_t row = o / cols;
      const int64_t c0 = o - row * cols;
      const int64_t n = std::min(cols - c0, hi - o);
      const int64_t base = AxesOffset(kept, row) + c0;
      float* dst = po + o;
      std::fill(dst, dst + n, 0.0f);
      for (int64_t r = 0; r < reduced; ++r) {
        const float* src = pg + base + AxesOffset(summed, r);
        for (int64_t j = 0; j < n; ++j) dst[j] += src[j];
      }
      o += n;
    }
  });
  return out;
}

void Node::AccumulateGrad(const Tensor& g) {
  if (g.shape() == value.shape()) {
    if (!grad_initialized) {
      grad = g;
      grad_initialized = true;
    } else {
      tensor::AddInPlace(&grad, g);
    }
    return;
  }
  Tensor reduced = ReduceGradToShape(g, value.shape());
  if (!grad_initialized) {
    grad = std::move(reduced);
    grad_initialized = true;
  } else {
    tensor::AddInPlace(&grad, reduced);
  }
}

void Node::AccumulateGrad(Tensor&& g) {
  if (g.shape() == value.shape() && !grad_initialized) {
    grad = std::move(g);
    grad_initialized = true;
    return;
  }
  AccumulateGrad(static_cast<const Tensor&>(g));
}

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Variable Variable::Constant(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

Variable Variable::Parameter(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/true);
}

const Tensor& Variable::value() const {
  STGNN_CHECK(defined());
  return node_->value;
}

Tensor Variable::grad() const {
  STGNN_CHECK(defined());
  if (!node_->grad_initialized) return Tensor::Zeros(node_->value.shape());
  return node_->grad;
}

bool Variable::requires_grad() const {
  STGNN_CHECK(defined());
  return node_->requires_grad;
}

void Variable::SetValue(Tensor value) {
  STGNN_CHECK(defined());
  STGNN_CHECK(value.shape() == node_->value.shape())
      << "SetValue shape mismatch";
  node_->value = std::move(value);
}

void Variable::ZeroGrad() {
  STGNN_CHECK(defined());
  node_->grad_initialized = false;
  node_->grad = Tensor();
}

Variable Variable::FromNode(std::shared_ptr<Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

namespace {

// Builds a reverse topological order (outputs first) of the subgraph that
// requires gradients.
void TopoSort(const std::shared_ptr<Node>& root,
              std::vector<std::shared_ptr<Node>>* order) {
  std::unordered_set<Node*> visited;
  // Iterative post-order DFS to avoid recursion depth limits on long chains.
  struct Frame {
    std::shared_ptr<Node> node;
    size_t next_parent = 0;
  };
  std::vector<Frame> stack;
  if (root->requires_grad) stack.push_back({root});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      const auto& parent = top.node->parents[top.next_parent++];
      if (parent->requires_grad && visited.insert(parent.get()).second) {
        stack.push_back({parent});
      }
    } else {
      order->push_back(top.node);
      stack.pop_back();
    }
  }
  // Post-order gives parents-before-children; reverse for children-first.
  std::reverse(order->begin(), order->end());
}

}  // namespace

void Variable::Backward(const BackwardOptions& options) const {
  STGNN_CHECK(defined());
  STGNN_CHECK(node_->requires_grad)
      << "Backward() on a variable that does not require grad";
  STGNN_TRACE_SCOPE("Backward");
  STGNN_COUNTER_INC("autograd.backwards");
  node_->AccumulateGrad(Tensor::Ones(node_->value.shape()));
  std::vector<std::shared_ptr<Node>> order;
  TopoSort(node_, &order);
  for (const auto& node : order) {
    if (node->backward_fn && node->grad_initialized) node->backward_fn();
    // After a node's own backward ran, nothing reads it again: all its
    // consumers ran earlier (children-first order) and every closure reads
    // only its parents' values, which sit later in the order. Recycle the
    // node's buffers now instead of at graph teardown so the next forward
    // pass can reuse them. Leaves have no backward_fn and the root keeps
    // its value/grad readable; both are skipped.
    if (options.release_graph && node->backward_fn && node != node_) {
      node->value.ReleaseStorage();
      if (node->grad_initialized) node->grad.ReleaseStorage();
      node->backward_fn = nullptr;  // frees captured closure state
      node->parents.clear();
      STGNN_COUNTER_INC("autograd.nodes_released");
    }
  }
}

}  // namespace stgnn::autograd
