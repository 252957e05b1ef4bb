#include "common/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "common/counters.h"
#include "common/trace.h"

namespace stgnn::common {

namespace {

// Class 0 holds kMinClassFloats; each class doubles up to kMaxClassFloats.
constexpr int kNumClasses = 21;
static_assert((BufferPool::kMinClassFloats << (kNumClasses - 1)) ==
              BufferPool::kMaxClassFloats);

// Buffers cached per class per thread before spilling to the global bins.
// Large classes cache fewer so an idle thread cannot hoard much memory.
constexpr size_t kThreadCacheCap = 8;
constexpr size_t kThreadCacheCapLarge = 2;
constexpr size_t kLargeClassFloats = size_t{1} << 16;  // 256 KiB

int ClassIndexCeil(size_t n) {
  const size_t rounded = std::bit_ceil(std::max(n, BufferPool::kMinClassFloats));
  return static_cast<int>(std::countr_zero(rounded)) -
         static_cast<int>(std::countr_zero(BufferPool::kMinClassFloats));
}

size_t ClassFloats(int cls) { return BufferPool::kMinClassFloats << cls; }

size_t CapFor(int cls) {
  return ClassFloats(cls) >= kLargeClassFloats ? kThreadCacheCapLarge
                                               : kThreadCacheCap;
}

}  // namespace

struct BufferPool::Impl {
  struct GlobalBin {
    std::mutex mu;
    std::vector<std::vector<float>> buffers;
  };
  GlobalBin bins[kNumClasses];

  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> bypasses{0};
  std::atomic<int64_t> released{0};
  std::atomic<int64_t> recycled_bytes{0};

  // Per-thread free lists. On thread exit the destructor hands the cached
  // buffers to the global bins (the Impl is leaked, so this is safe even
  // during static destruction of the thread's other locals).
  struct ThreadCache {
    Impl* owner = nullptr;
    std::vector<std::vector<float>> bins[kNumClasses];
    ~ThreadCache() {
      if (owner == nullptr) return;
      for (int c = 0; c < kNumClasses; ++c) {
        if (bins[c].empty()) continue;
        std::lock_guard<std::mutex> lock(owner->bins[c].mu);
        for (auto& buf : bins[c]) {
          owner->bins[c].buffers.push_back(std::move(buf));
        }
      }
    }
  };

  ThreadCache* Cache() {
    thread_local ThreadCache cache;
    cache.owner = this;
    return &cache;
  }
};

BufferPool::BufferPool()
    : impl_(new Impl()), enabled_(true) {}

BufferPool* BufferPool::Global() {
  // Leaked, like the thread pool and the counter registry: tensors owned by
  // statics release their buffers here during static destruction.
  static BufferPool* pool = new BufferPool();
  return pool;
}

size_t BufferPool::SizeClassFor(size_t n) {
  if (n > kMaxClassFloats) return 0;  // out of pool range
  return ClassFloats(ClassIndexCeil(n));
}

std::vector<float> BufferPool::Acquire(size_t n, bool zeroed) {
  if (n == 0) return {};
  if (!enabled() || n > kMaxClassFloats) {
    impl_->bypasses.fetch_add(1, std::memory_order_relaxed);
    STGNN_COUNTER_INC("tensor.allocs");
    STGNN_COUNTER_ADD("tensor.fresh_alloc_bytes",
                      static_cast<int64_t>(n) * sizeof(float));
    return std::vector<float>(n);
  }
  const int cls = ClassIndexCeil(n);
  std::vector<float> buf;
  bool pooled = false;
  Impl::ThreadCache* cache = impl_->Cache();
  if (!cache->bins[cls].empty()) {
    buf = std::move(cache->bins[cls].back());
    cache->bins[cls].pop_back();
    pooled = true;
  } else {
    Impl::GlobalBin& bin = impl_->bins[cls];
    std::lock_guard<std::mutex> lock(bin.mu);
    if (!bin.buffers.empty()) {
      buf = std::move(bin.buffers.back());
      bin.buffers.pop_back();
      pooled = true;
    }
  }
  if (pooled) {
    impl_->hits.fetch_add(1, std::memory_order_relaxed);
    impl_->recycled_bytes.fetch_add(static_cast<int64_t>(n) * sizeof(float),
                                    std::memory_order_relaxed);
    STGNN_COUNTER_INC("pool.buffer_hits");
    STGNN_COUNTER_ADD("tensor.pool_hit_bytes",
                      static_cast<int64_t>(n) * sizeof(float));
    // Pooled buffers are stored at full class size, so this only shrinks —
    // no reallocation, no element initialisation.
    buf.resize(n);
    if (zeroed) std::memset(buf.data(), 0, n * sizeof(float));
    return buf;
  }
  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  STGNN_COUNTER_INC("pool.buffer_misses");
  STGNN_COUNTER_INC("tensor.allocs");
  STGNN_COUNTER_ADD("tensor.fresh_alloc_bytes",
                    static_cast<int64_t>(n) * sizeof(float));
  // Reserve the full class so the buffer re-enters this class on release.
  buf.reserve(ClassFloats(cls));
  buf.resize(n);  // value-initialised: fresh buffers are zeroed either way
  return buf;
}

std::vector<float> BufferPool::AcquireZeroed(size_t n) {
  return Acquire(n, /*zeroed=*/true);
}

std::vector<float> BufferPool::AcquireUninitialized(size_t n) {
  return Acquire(n, /*zeroed=*/false);
}

void BufferPool::Release(std::vector<float>&& buf) {
  const size_t capacity = buf.capacity();
  if (capacity == 0) return;
  if (!enabled() || capacity < kMinClassFloats || capacity > kMaxClassFloats) {
    std::vector<float>().swap(buf);  // free
    return;
  }
  // Largest class that still fits: resize to it (within capacity, so no
  // reallocation) so the next acquisition's shrink-resize never initialises.
  const size_t floor_floats = std::bit_floor(capacity);
  const int cls = ClassIndexCeil(floor_floats);
  buf.resize(ClassFloats(cls));
  impl_->released.fetch_add(1, std::memory_order_relaxed);
  STGNN_COUNTER_ADD("pool.bytes_recycled",
                    static_cast<int64_t>(ClassFloats(cls)) * sizeof(float));
  Impl::ThreadCache* cache = impl_->Cache();
  if (cache->bins[cls].size() < CapFor(cls)) {
    cache->bins[cls].push_back(std::move(buf));
    return;
  }
  STGNN_TRACE_SCOPE("BufferPool.GlobalRelease");
  Impl::GlobalBin& bin = impl_->bins[cls];
  std::lock_guard<std::mutex> lock(bin.mu);
  bin.buffers.push_back(std::move(buf));
}

void BufferPool::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  if (!enabled) Drain();
}

void BufferPool::Drain() {
  STGNN_TRACE_SCOPE("BufferPool.Drain");
  Impl::ThreadCache* cache = impl_->Cache();
  for (int c = 0; c < kNumClasses; ++c) {
    cache->bins[c].clear();
    cache->bins[c].shrink_to_fit();
    std::lock_guard<std::mutex> lock(impl_->bins[c].mu);
    impl_->bins[c].buffers.clear();
    impl_->bins[c].buffers.shrink_to_fit();
  }
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.bypasses = impl_->bypasses.load(std::memory_order_relaxed);
  s.released = impl_->released.load(std::memory_order_relaxed);
  s.recycled_bytes = impl_->recycled_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace stgnn::common
