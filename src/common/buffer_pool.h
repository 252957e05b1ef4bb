#ifndef STGNN_COMMON_BUFFER_POOL_H_
#define STGNN_COMMON_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stgnn::common {

// Process-wide size-class recycler for float buffers.
//
// Every tensor data buffer in the system is a std::vector<float>; the pool
// keeps destroyed buffers, bucketed by capacity size-class (powers of two,
// kMinClassFloats minimum), and hands them back to later acquisitions of the
// same class instead of hitting the allocator. After a warmup pass over a
// workload, a steady-state training step recycles every buffer it needs and
// performs (near-)zero fresh heap allocations (pinned by
// tests/buffer_pool_test.cc).
//
// Threading: each thread owns a small free-list cache (no locks); overflow
// and refill go through per-class global bins behind a mutex, so buffers
// released on one thread are acquirable from another. Thread caches flush to
// the global bins on thread exit. The pool itself is created leaked, like
// the thread pool and counter registry, so worker threads may release
// buffers during static destruction.
//
// Determinism: a recycled buffer either comes back zero-filled
// (AcquireZeroed) or is handed to a kernel that overwrites every element
// before reading any (AcquireUninitialized) — the pooled and unpooled paths
// are bit-identical, and tests/buffer_pool_test.cc pins forward/backward
// parity with the pool on and off.
//
// The pool is enabled by default; SetEnabled(false) bypasses it (the
// parity tests' unpooled reference), in which case every acquisition is a
// fresh allocation and every release frees.
class BufferPool {
 public:
  // Smallest pooled class; requests below it still go through the pool (a
  // scalar occupies a kMinClassFloats buffer — trading slack bytes for
  // recyclability of the very hottest, tiniest tensors).
  static constexpr size_t kMinClassFloats = 64;
  // Largest pooled class (256 MiB of floats). Bigger buffers bypass the
  // pool so a one-off giant allocation is not hoarded forever.
  static constexpr size_t kMaxClassFloats = size_t{1} << 26;

  // The leaked process-wide instance.
  static BufferPool* Global();

  // A buffer with size() == n and every element 0.0f.
  std::vector<float> AcquireZeroed(size_t n);
  // A buffer with size() == n and unspecified contents. Only for callers
  // that overwrite every element before reading any; with the pool disabled
  // the buffer is zeroed, so a violation shows up as a pooled-vs-unpooled
  // parity break, caught by the parity tests.
  std::vector<float> AcquireUninitialized(size_t n);
  // Returns a buffer to its size class (no-op for empty buffers; frees when
  // the pool is disabled or the buffer is out of class range).
  void Release(std::vector<float>&& buf);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Disabling also drains (see Drain).
  void SetEnabled(bool enabled);

  // Flushes the calling thread's cache into the global bins and frees every
  // globally held buffer. Caches of other live threads are untouched (they
  // flush when their threads exit).
  void Drain();

  // Monotonic counters, independent of the STGNN_ENABLE_TRACING build
  // switch so tests can always observe pool behaviour.
  struct Stats {
    int64_t hits = 0;            // acquisitions served from the pool
    int64_t misses = 0;          // fresh allocations (pool enabled)
    int64_t bypasses = 0;        // fresh allocations (disabled/out of range)
    int64_t released = 0;        // buffers accepted back
    int64_t recycled_bytes = 0;  // bytes handed back out of the pool
  };
  Stats stats() const;

  // The capacity (in floats) of the size class serving a request of n
  // floats: n rounded up to a power of two, at least kMinClassFloats.
  // Exposed for the size-class rounding tests.
  static size_t SizeClassFor(size_t n);

 private:
  BufferPool();
  std::vector<float> Acquire(size_t n, bool zeroed);

  struct Impl;
  Impl* impl_;
  std::atomic<bool> enabled_;
};

}  // namespace stgnn::common

#endif  // STGNN_COMMON_BUFFER_POOL_H_
