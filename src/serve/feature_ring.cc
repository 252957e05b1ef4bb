#include "serve/feature_ring.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/counters.h"
#include "common/trace.h"

namespace stgnn::serve {

using tensor::Tensor;

namespace {

// Non-short-circuit `&` so the counting loop below vectorises.
bool ValidFlow(float v) {
  return (v >= 0.0f) & (v <= std::numeric_limits<float>::max());
}

// Index of the first NaN, infinite or negative entry, or -1. Every ring of
// a fleet scans the full [n, n] input on each push, so blocks are first
// counted branch-free (vectorisable) and only a failing block is rescanned.
int64_t FirstInvalidFlow(const std::vector<float>& flows) {
  constexpr size_t kBlock = 1024;
  for (size_t begin = 0; begin < flows.size(); begin += kBlock) {
    const size_t end = std::min(flows.size(), begin + kBlock);
    int valid = 0;
    for (size_t i = begin; i < end; ++i) valid += ValidFlow(flows[i]);
    if (valid == static_cast<int>(end - begin)) continue;
    for (size_t i = begin; i < end; ++i) {
      if (!ValidFlow(flows[i])) return static_cast<int64_t>(i);
    }
  }
  return -1;
}

}  // namespace

FeatureRing::FeatureRing(int num_stations, int short_term_slots,
                         int long_term_days, int slots_per_day, float scale,
                         std::vector<int> owned_rows)
    : num_stations_(num_stations),
      k_(short_term_slots),
      d_(long_term_days),
      slots_per_day_(slots_per_day),
      window_(std::max(k_, d_ * slots_per_day_)),
      capacity_(window_ + 2),
      scale_(scale),
      owned_(std::move(owned_rows)),
      row_size_(static_cast<size_t>(owned_.empty()
                                        ? num_stations
                                        : static_cast<int>(owned_.size())) *
                num_stations) {
  STGNN_CHECK_GT(num_stations_, 0);
  STGNN_CHECK_GE(k_, 1);
  STGNN_CHECK_GE(d_, 0);
  STGNN_CHECK_GE(slots_per_day_, 1);
  for (size_t r = 0; r < owned_.size(); ++r) {
    STGNN_CHECK(owned_[r] >= 0 && owned_[r] < num_stations_);
    STGNN_CHECK(r == 0 || owned_[r] > owned_[r - 1])
        << "owned_rows must be ascending";
  }
  in_rows_.resize(static_cast<size_t>(capacity_) * row_size_);
  out_rows_.resize(static_cast<size_t>(capacity_) * row_size_);
}

Status FeatureRing::Push(int slot, const Tensor& inflow,
                         const Tensor& outflow) {
  STGNN_TRACE_SCOPE("Serve.Ingest");
  const int n = num_stations_;
  if (inflow.ndim() != 2 || inflow.dim(0) != n || inflow.dim(1) != n ||
      outflow.ndim() != 2 || outflow.dim(0) != n || outflow.dim(1) != n) {
    return Status::InvalidArgument(
        "FeatureRing::Push expects [" + std::to_string(n) + ", " +
        std::to_string(n) + "] flow matrices, got inflow " +
        tensor::ShapeToString(inflow.shape()) + " outflow " +
        tensor::ShapeToString(outflow.shape()));
  }
  // Flows are counts: a NaN, an infinity or a negative entry would flow
  // into served rows and the online trainer's Adam moments, so the whole
  // input is refused before anything is written. Every ring of a fleet
  // checks the full matrices, so all shards agree on the refusal.
  for (const Tensor* m : {&inflow, &outflow}) {
    const int64_t i = FirstInvalidFlow(m->data());
    if (i < 0) continue;
    STGNN_COUNTER_INC("serve.ingest_rejected");
    return Status::InvalidArgument(
        std::string("FeatureRing::Push: ") +
        (m == &inflow ? "inflow" : "outflow") + "[" + std::to_string(i / n) +
        ", " + std::to_string(i % n) + "] = " + std::to_string(m->flat(i)) +
        " of slot " + std::to_string(slot) +
        " is not a finite non-negative flow");
  }
  // Phase 1 (reserve): validate the slot and mark the target cell
  // in-flight; the expensive scaled copy then runs unlocked.
  std::function<void()> pause;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (slot < next_slot_) {
      const int oldest_retained = next_slot_ - stored_;
      return Status::FailedPrecondition(
          "slot " + std::to_string(slot) +
          (slot < oldest_retained ? " was already ingested and overwritten"
                                  : " was already ingested") +
          " (frontier " + std::to_string(next_slot_) +
          "); re-ingest would rewrite served history");
    }
    if (slot > next_slot_) {
      return Status::InvalidArgument(
          "out-of-order ingest: expected slot " + std::to_string(next_slot_) +
          ", got " + std::to_string(slot));
    }
    if (write_in_flight_) {
      return Status::FailedPrecondition(
          "concurrent ingest of slot " + std::to_string(next_slot_) +
          " already in flight");
    }
    write_in_flight_ = true;
    // The cell we are about to rewrite holds this retained slot (when the
    // ring is full); a History() needing it must fail typed, not tear.
    invalidating_slot_ = stored_ == capacity_ ? next_slot_ - capacity_ : -1;
    pause = ingest_pause_for_test_;
  }
  if (pause) pause();

  // Pre-scale at ingest so History() is pure copies. One multiply per
  // element, exactly like BuildStHistory's CopyFlowRow, so values are
  // bit-identical to the offline assembly path. Runs outside the mutex:
  // the in-flight marker keeps readers away from this cell, so History()
  // calls for other slots proceed concurrently with the copy.
  float* in_cell = in_rows_.data() + CellOffset(slot);
  float* out_cell = out_rows_.data() + CellOffset(slot);
  const float* in_src = inflow.data().data();
  const float* out_src = outflow.data().data();
  if (owned_.empty()) {
    for (size_t i = 0; i < row_size_; ++i) in_cell[i] = in_src[i] * scale_;
    for (size_t i = 0; i < row_size_; ++i) out_cell[i] = out_src[i] * scale_;
  } else {
    // Sharded mode: store only the owned station rows (same per-element
    // multiply, so the kept values are bitwise those of a full ring).
    for (size_t r = 0; r < owned_.size(); ++r) {
      const size_t src = static_cast<size_t>(owned_[r]) * n;
      const size_t dst = r * n;
      for (int j = 0; j < n; ++j) in_cell[dst + j] = in_src[src + j] * scale_;
      for (int j = 0; j < n; ++j) {
        out_cell[dst + j] = out_src[src + j] * scale_;
      }
    }
  }

  // Phase 2 (commit): publish the slot and notify the listener inside the
  // same critical section, so no reader can see the new frontier before the
  // derived caches were invalidated.
  {
    std::lock_guard<std::mutex> lock(mu_);
    write_in_flight_ = false;
    invalidating_slot_ = -1;
    ++next_slot_;
    if (stored_ < capacity_) ++stored_;
    if (listener_ != nullptr) {
      listener_->OnRingAdvance(next_slot_, MinServableLocked());
    }
  }
  STGNN_COUNTER_INC("serve.ingested_slots");
  return Status::OK();
}

int FeatureRing::next_slot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_slot_;
}

int FeatureRing::min_servable_slot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MinServableLocked();
}

bool FeatureRing::ReadyFor(int t) const {
  return History(t).ok();
}

void FeatureRing::SetListener(RingListener* listener) {
  std::lock_guard<std::mutex> lock(mu_);
  STGNN_CHECK(listener == nullptr || listener_ == nullptr)
      << "FeatureRing supports a single listener; clear the old one first";
  listener_ = listener;
}

void FeatureRing::SetIngestPauseForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  ingest_pause_for_test_ = std::move(hook);
}

Result<data::StHistory> FeatureRing::History(int t) const {
  STGNN_TRACE_SCOPE("Serve.Assemble");
  std::lock_guard<std::mutex> lock(mu_);
  if (t < window_) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(t) + " predates the first predictable slot " +
        std::to_string(window_) + " (needs " + std::to_string(k_) +
        " slots and " + std::to_string(d_) + " days of history)");
  }
  if (t > next_slot_) {
    return Status::OutOfRange("slot " + std::to_string(t) +
                              " is ahead of the ingest frontier " +
                              std::to_string(next_slot_));
  }
  const int oldest_retained = next_slot_ - stored_;
  if (t - window_ < oldest_retained) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(t) + " needs slot " +
        std::to_string(t - window_) + ", already overwritten (ring retains [" +
        std::to_string(oldest_retained) + ", " + std::to_string(next_slot_) +
        "))");
  }
  // An in-flight Push is rewriting the cell that still holds
  // `invalidating_slot_`. If t's window includes that slot, assembling now
  // would read a half-overwritten row; fail typed instead (after the
  // commit the same request fails as "overwritten" above).
  if (write_in_flight_ && invalidating_slot_ >= 0 &&
      invalidating_slot_ >= t - window_ && invalidating_slot_ < t) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(t) + " needs slot " +
        std::to_string(invalidating_slot_) +
        ", which an in-flight ingest is overwriting (assembly would "
        "straddle the invalidation)");
  }
  const int row_elems = static_cast<int>(row_size_);
  data::StHistory history;
  // Every element is overwritten by the memcpys below.
  history.inflow_short = Tensor::Uninitialized({k_, row_elems});
  history.outflow_short = Tensor::Uninitialized({k_, row_elems});
  history.inflow_long = Tensor::Uninitialized({d_, row_elems});
  history.outflow_long = Tensor::Uninitialized({d_, row_elems});
  float* in_short = history.inflow_short.mutable_data().data();
  float* out_short = history.outflow_short.mutable_data().data();
  for (int c = 0; c < k_; ++c) {
    const size_t cell = CellOffset(t - k_ + c);
    std::memcpy(in_short + static_cast<size_t>(c) * row_size_,
                in_rows_.data() + cell, row_size_ * sizeof(float));
    std::memcpy(out_short + static_cast<size_t>(c) * row_size_,
                out_rows_.data() + cell, row_size_ * sizeof(float));
  }
  float* in_long = history.inflow_long.mutable_data().data();
  float* out_long = history.outflow_long.mutable_data().data();
  for (int c = 0; c < d_; ++c) {
    const size_t cell = CellOffset(t - (d_ - c) * slots_per_day_);
    std::memcpy(in_long + static_cast<size_t>(c) * row_size_,
                in_rows_.data() + cell, row_size_ * sizeof(float));
    std::memcpy(out_long + static_cast<size_t>(c) * row_size_,
                out_rows_.data() + cell, row_size_ * sizeof(float));
  }
  return history;
}

Result<SlotWindow> FeatureRing::SnapshotWindow(int first, int last) const {
  STGNN_TRACE_SCOPE("Serve.SnapshotWindow");
  std::lock_guard<std::mutex> lock(mu_);
  if (first < 0 || first > last) {
    return Status::InvalidArgument(
        "SnapshotWindow wants slots [" + std::to_string(first) + ", " +
        std::to_string(last) + "]: not a valid slot range");
  }
  if (last >= next_slot_) {
    return Status::OutOfRange("slot " + std::to_string(last) +
                              " has not been ingested yet (frontier " +
                              std::to_string(next_slot_) + ")");
  }
  const int oldest_retained = next_slot_ - stored_;
  if (first < oldest_retained) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(first) + " was already overwritten (ring "
        "retains [" + std::to_string(oldest_retained) + ", " +
        std::to_string(next_slot_) + "))");
  }
  if (write_in_flight_ && invalidating_slot_ >= first &&
      invalidating_slot_ <= last) {
    return Status::FailedPrecondition(
        "slot " + std::to_string(invalidating_slot_) +
        " is being overwritten by an in-flight ingest (copy would straddle "
        "the invalidation)");
  }
  SlotWindow window;
  window.first = first;
  const int count = last - first + 1;
  window.inflow.reserve(count);
  window.outflow.reserve(count);
  const int rows = num_owned();
  for (int slot = first; slot <= last; ++slot) {
    const size_t cell = CellOffset(slot);
    Tensor in = Tensor::Uninitialized({rows, num_stations_});
    Tensor out = Tensor::Uninitialized({rows, num_stations_});
    std::memcpy(in.mutable_data().data(), in_rows_.data() + cell,
                row_size_ * sizeof(float));
    std::memcpy(out.mutable_data().data(), out_rows_.data() + cell,
                row_size_ * sizeof(float));
    window.inflow.push_back(std::move(in));
    window.outflow.push_back(std::move(out));
  }
  return window;
}

}  // namespace stgnn::serve
