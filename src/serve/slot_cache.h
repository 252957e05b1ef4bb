#ifndef STGNN_SERVE_SLOT_CACHE_H_
#define STGNN_SERVE_SLOT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "common/trace.h"
#include "core/stgnn_djd.h"
#include "data/window.h"
#include "serve/feature_ring.h"

namespace stgnn::serve {

// One memoised serving prefix: everything StgnnDjdModel::Forward computes
// before the GNN/attention/fusion head, for one (slot, model snapshot).
// Immutable once inserted; requests hold it through a shared_ptr, so an
// eviction or invalidation never tears a batch that already looked it up.
struct SlotCacheEntry {
  int slot = -1;
  uint64_t model_version = 0;
  // Stage 1: the assembled flow window (FeatureRing::History output).
  data::StHistory history;
  // Stage 2: flow-convolution embeddings (value tensors, no autograd).
  core::StgnnDjdModel::Embeddings embeddings;
  // Stage 3: the slot's FCG — pattern plus Eq. (10) weights. Undefined
  // (has_graph == false) when the snapshot's model has no FCG branch.
  // The weights Variable roots a tiny constant-only autograd graph; it is
  // only ever read under the service's execution lock.
  core::FlowConvolutedGraph graph;
  bool has_graph = false;
};

// Monotonic counters, always compiled (unlike STGNN_COUNTER_*, which
// vanishes under STGNN_ENABLE_TRACING=OFF) so tests can assert on them in
// every build flavour. Shared by every SlotCacheT instantiation so engine
// interfaces can expose one stats type regardless of the entry payload.
struct SlotCacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  // Entries dropped because a ring advance overwrote their history, plus
  // stale inserts refused for the same reason.
  std::atomic<uint64_t> invalidations{0};
};

// Small LRU cache of EntryT keyed by (slot, model_version), shared by the
// service workers of one engine. EntryT must expose `int slot` and
// `uint64_t model_version` members; the local engine caches staged-forward
// prefixes (SlotCacheEntry), the shard engine caches halo-exchange slot
// contexts. Hot-swapping a model changes the version and therefore misses
// naturally; ring advances invalidate entries whose slot can no longer be
// served (their history rows were overwritten).
//
// Cached entries are value-immutable: a slot's flow matrices are ingested
// exactly once, so an entry assembled from live rows stays bit-identical to
// a fresh cold assembly for as long as the slot is servable. Invalidation
// therefore only has to keep the cache from *publishing* entries for slots
// the ring has already overwritten — the stale-insert guard below — and
// from retaining dead entries.
//
// Thread-safe. Lock order: FeatureRing::mu_ -> SlotCacheT::mu_ (the ring
// calls OnRingAdvance with its mutex held); the cache never calls into the
// ring.
template <typename EntryT>
class SlotCacheT : public RingListener {
 public:
  using Stats = SlotCacheStats;

  // `capacity` bounds retained entries; the serving steady state needs only
  // the frontier slot per live snapshot, so a handful suffices.
  explicit SlotCacheT(size_t capacity = 4) : capacity_(capacity) {
    STGNN_CHECK_GE(capacity_, 1u);
    shelves_.reserve(capacity_);
  }

  // The cached entry for (slot, model_version), or nullptr. Counts a hit
  // or a miss and bumps the entry's LRU stamp.
  std::shared_ptr<const EntryT> Lookup(int slot, uint64_t model_version) {
    STGNN_TRACE_SCOPE("Serve.CacheLookup");
    std::lock_guard<std::mutex> lock(mu_);
    for (Shelf& shelf : shelves_) {
      if (shelf.entry->slot == slot &&
          shelf.entry->model_version == model_version) {
        shelf.lru_stamp = next_stamp_++;
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        STGNN_COUNTER_INC("serve.cache_hit");
        return shelf.entry;
      }
    }
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    STGNN_COUNTER_INC("serve.cache_miss");
    return nullptr;
  }

  // Counting existence probe: records a hit or a miss for (slot,
  // model_version) but leaves LRU stamps alone. Coordinators use this for
  // "is this context already built?", which makes a hot-swap observable in
  // the stats — the first probe of a freshly published version is exactly
  // one miss per cache, and every probe after the rebuild is a hit.
  bool Probe(int slot, uint64_t model_version) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Shelf& shelf : shelves_) {
      if (shelf.entry->slot == slot &&
          shelf.entry->model_version == model_version) {
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        STGNN_COUNTER_INC("serve.cache_hit");
        return true;
      }
    }
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    STGNN_COUNTER_INC("serve.cache_miss");
    return false;
  }

  // Publishes an entry, evicting the least-recently-used one if full and
  // replacing any existing entry with the same key. Refused (counted as an
  // invalidation) when the entry's slot has already fallen behind the
  // ring's servable range — a cold assembly that raced an overwrite.
  void Insert(std::shared_ptr<const EntryT> entry) {
    STGNN_CHECK(entry != nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->slot < min_servable_slot_) {
      // The ring overwrote this slot's history while the cold path was
      // assembling it. The batch that built the entry still serves correct
      // values (its copies predate the overwrite), but publishing it could
      // hand later batches a slot the ring itself would now refuse.
      stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
      STGNN_COUNTER_INC("serve.cache_invalidations");
      return;
    }
    for (Shelf& shelf : shelves_) {
      if (shelf.entry->slot == entry->slot &&
          shelf.entry->model_version == entry->model_version) {
        shelf.entry = std::move(entry);
        shelf.lru_stamp = next_stamp_++;
        return;
      }
    }
    if (shelves_.size() < capacity_) {
      shelves_.push_back(Shelf{next_stamp_++, std::move(entry)});
      return;
    }
    auto victim = std::min_element(
        shelves_.begin(), shelves_.end(), [](const Shelf& a, const Shelf& b) {
          return a.lru_stamp < b.lru_stamp;
        });
    victim->entry = std::move(entry);
    victim->lru_stamp = next_stamp_++;
  }

  // RingListener: drops entries whose slot is no longer servable. Called
  // by FeatureRing::Push with the ring mutex held.
  void OnRingAdvance(int /*frontier*/, int min_servable_slot) override {
    std::lock_guard<std::mutex> lock(mu_);
    min_servable_slot_ = std::max(min_servable_slot_, min_servable_slot);
    size_t kept = 0;
    for (size_t i = 0; i < shelves_.size(); ++i) {
      if (shelves_[i].entry->slot >= min_servable_slot_) {
        shelves_[kept++] = std::move(shelves_[i]);
      } else {
        stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
        STGNN_COUNTER_INC("serve.cache_invalidations");
      }
    }
    shelves_.resize(kept);
  }

  const Stats& stats() const { return stats_; }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shelves_.size();
  }

 private:
  struct Shelf {
    uint64_t lru_stamp = 0;
    std::shared_ptr<const EntryT> entry;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t next_stamp_ = 1;
  int min_servable_slot_ = 0;
  std::vector<Shelf> shelves_;
  Stats stats_;
};

using SlotCache = SlotCacheT<SlotCacheEntry>;

extern template class SlotCacheT<SlotCacheEntry>;

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_SLOT_CACHE_H_
