#ifndef STGNN_SERVE_FEATURE_RING_H_
#define STGNN_SERVE_FEATURE_RING_H_

#include <algorithm>
#include <functional>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "data/window.h"
#include "tensor/tensor.h"

namespace stgnn::serve {

// Observer of ring frontier advances, used to invalidate derived per-slot
// state (the serving SlotCache) in the same critical section that commits
// the new slot — so no reader can observe the new frontier before the
// invalidation ran.
class RingListener {
 public:
  virtual ~RingListener() = default;

  // Called with the ring's mutex held, immediately after a Push commits.
  // `frontier` is the new next_slot(); `min_servable_slot` is the smallest
  // t for which History(t) can still succeed. The callee must not call back
  // into the ring (the mutex is held) and must be fast.
  virtual void OnRingAdvance(int frontier, int min_servable_slot) = 0;
};

// Copy-out of consecutive retained slots, as returned by
// FeatureRing::SnapshotWindow. Each element holds one slot's stored
// [num_owned, n] pre-scaled rows — bitwise the floats History() would
// memcpy for the same slot, copied under the ring mutex so they can never
// be torn by a concurrent ingest.
struct SlotWindow {
  int first = 0;  // slot held by inflow[0] / outflow[0]
  std::vector<tensor::Tensor> inflow;
  std::vector<tensor::Tensor> outflow;

  int count() const { return static_cast<int>(inflow.size()); }
  int last() const { return first + count() - 1; }
};

// Rolling window of per-slot flow matrices, sized to exactly the history
// STGNN-DJD's flow convolution reads: the last k slots plus the same slot
// of the last d days, i.e. max(k, d * slots_per_day) slots (plus a small
// slack, see below). Ingest pushes each new slot's I^t/O^t matrix once;
// History() then assembles a data::StHistory with one row copy per history
// channel — no dataset re-slicing and no re-scaling, because rows are
// stored pre-multiplied by `scale` at push time. The values (and their
// float rounding) are therefore bit-identical to data::BuildStHistory on
// the same flows with the same scale.
//
// Slack: capacity is window + 2 slots so that (a) predicting slot t stays
// valid after slot t's own observation arrives (the online setting
// predicts t, then ingests t), and (b) an ingest racing a concurrent
// History() call cannot invalidate a just-resolved request.
//
// Thread-safe: Push and History may be called concurrently from any
// threads. Push runs in two phases so the O(n²) scaled row copy happens
// OUTSIDE the mutex: a short reserve step marks the target cell in-flight,
// the copy proceeds unlocked, and a short commit step publishes the slot
// (and notifies the listener). A History() whose window includes the cell
// being overwritten mid-push — i.e. one that straddles the in-flight
// invalidation — fails with a typed FailedPrecondition instead of a torn
// read; after the commit the same request fails typed as "overwritten".
class FeatureRing {
 public:
  // `scale` is the model's input scale (input_scale_multiplier /
  // max_train_flow); rows are stored pre-scaled.
  //
  // `owned_rows` selects the sharded mode: when non-empty, Push still takes
  // the full [n, n] matrices (every shard sees the same ingest stream) but
  // only the listed station rows are stored, and History() returns
  // [c, o*n] tensors whose r-th row block is station owned_rows[r]. The
  // per-element scaled copy is unchanged, so the stored values are
  // bit-identical to the matching rows of an unsharded ring — the fleet's
  // total ring memory equals one unsharded ring's. Empty = own all rows.
  FeatureRing(int num_stations, int short_term_slots, int long_term_days,
              int slots_per_day, float scale,
              std::vector<int> owned_rows = {});

  int num_stations() const { return num_stations_; }
  // Station ids stored by this ring, ascending; empty means all.
  const std::vector<int>& owned_rows() const { return owned_; }
  // Rows stored per slot: owned_rows().size(), or num_stations() when all.
  int num_owned() const {
    return owned_.empty() ? num_stations_ : static_cast<int>(owned_.size());
  }
  int short_term_slots() const { return k_; }
  int long_term_days() const { return d_; }
  int slots_per_day() const { return slots_per_day_; }
  // Slots retained: max(k, d * slots_per_day) + 2.
  int capacity() const { return capacity_; }

  // Appends the [n, n] flow matrices observed at `slot`. Slots must arrive
  // in order with no gaps. Typed errors, never aborts:
  //  - FailedPrecondition: `slot` was already ingested (its rows are live
  //    or already overwritten — re-ingest would rewrite served history), or
  //    another Push is still in flight;
  //  - InvalidArgument: `slot` is ahead of the frontier (a gap), the
  //    matrices have the wrong shape, or an entry is NaN, infinite or
  //    negative (the message names the first such (row, col, value); the
  //    push is counted in serve.ingest_rejected and writes nothing).
  Status Push(int slot, const tensor::Tensor& inflow,
              const tensor::Tensor& outflow);

  // The ingest frontier: the slot the next Push must carry, and the slot a
  // "latest" prediction request resolves to.
  int next_slot() const;

  // First slot with enough history once the ring has seen slots [0, t):
  // max(k, d * slots_per_day), mirroring FlowDataset::FirstPredictableSlot.
  int first_predictable_slot() const { return window_; }

  // Smallest t for which History(t) can currently succeed (ignoring the
  // frontier bound): history older than this has been overwritten.
  int min_servable_slot() const;

  // True iff History(t) would succeed right now.
  bool ReadyFor(int t) const;

  // Assembles the short/long-term flow history for predicting slot t.
  // Typed errors instead of aborts, so a serving request with insufficient
  // context is a normal rejected response:
  //  - FailedPrecondition: t predates the first predictable slot, the
  //    slots it needs have already been overwritten (t too far behind the
  //    frontier), or an in-flight Push is currently overwriting a slot in
  //    t's window (the assembly would straddle the invalidation);
  //  - OutOfRange: t is ahead of the ingest frontier (history not yet
  //    observed).
  Result<data::StHistory> History(int t) const;

  // Copies the stored rows of slots [first, last] (inclusive) out of the
  // ring — the streaming trainer's bulk export, which must never observe a
  // row mid-overwrite. Typed errors, never aborts:
  //  - InvalidArgument: first < 0 or first > last;
  //  - OutOfRange: last is at or ahead of the ingest frontier (not yet
  //    observed — retry after the next Push commits);
  //  - FailedPrecondition: a requested slot was already overwritten (the
  //    caller fell behind the ring's retention), or an in-flight Push is
  //    rewriting a requested slot's cell (the copy would straddle the
  //    invalidation — the same guard History() uses).
  Result<SlotWindow> SnapshotWindow(int first, int last) const;

  // Registers the frontier-advance listener (the serving slot cache).
  // Pass nullptr to clear. At most one listener may be registered at a
  // time; replacing a live listener is a programming error.
  void SetListener(RingListener* listener);

  // Test-only fault-injection seam: invoked between the ingest reserve and
  // the row copy, while no lock is held, so a test can deterministically
  // interleave a History() call with an in-flight invalidation.
  void SetIngestPauseForTest(std::function<void()> hook);

 private:
  // Row index into the flat storage for a retained slot.
  size_t CellOffset(int slot) const {
    return static_cast<size_t>(slot % capacity_) * row_size_;
  }
  // min_servable_slot() with mu_ already held.
  int MinServableLocked() const {
    return std::max(window_, next_slot_ - stored_ + window_);
  }

  const int num_stations_;
  const int k_;
  const int d_;
  const int slots_per_day_;
  const int window_;    // max(k, d * slots_per_day)
  const int capacity_;  // window_ + 2
  const float scale_;
  const std::vector<int> owned_;  // empty = all rows
  const size_t row_size_;         // num_owned() * n

  mutable std::mutex mu_;
  int next_slot_ = 0;  // slots [next_slot_ - stored_, next_slot_) retained
  int stored_ = 0;
  // In-flight ingest state: while a Push is between reserve and commit,
  // `invalidating_slot_` names the retained slot whose cell is being
  // overwritten (-1 when the target cell held no live slot).
  bool write_in_flight_ = false;
  int invalidating_slot_ = -1;
  RingListener* listener_ = nullptr;
  std::function<void()> ingest_pause_for_test_;
  std::vector<float> in_rows_;   // capacity_ rows of n*n pre-scaled floats
  std::vector<float> out_rows_;
};

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_FEATURE_RING_H_
