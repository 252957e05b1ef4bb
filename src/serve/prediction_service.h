#ifndef STGNN_SERVE_PREDICTION_SERVICE_H_
#define STGNN_SERVE_PREDICTION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/engine.h"
#include "serve/feature_ring.h"
#include "serve/histogram.h"
#include "serve/model_registry.h"
#include "serve/slot_cache.h"
#include "tensor/tensor.h"

namespace stgnn::serve {

// One station-set query: "predict slot `slot` for these stations".
struct PredictRequest {
  // Resolves to the ring's ingest frontier at dequeue time — the next
  // unobserved slot, which is what an online caller means by "now".
  static constexpr int kLatestSlot = -1;

  int slot = kLatestSlot;
  // Stations whose prediction rows the caller wants, in response-row
  // order. Empty means all stations.
  std::vector<int> stations;
  // Absolute deadline on the trace::NowNs() clock; 0 disables. A request
  // whose deadline has passed when a worker picks it up is shed instead of
  // served — bounded staleness instead of unbounded latency.
  int64_t deadline_ns = 0;
};

struct PredictResponse {
  enum class Kind {
    kOk,
    kRejectedQueueFull,  // admission control: the bounded queue was full
    kRejectedDeadline,   // load shedding: deadline passed before service
    kFailed,             // typed error in `status` (no model, bad request,
                         // insufficient history, service stopped)
  };

  Kind kind = Kind::kFailed;
  Status status;  // error detail for kFailed; OK otherwise
  // [m, 2 * horizon] rows in request-station order (all n stations when
  // the request left `stations` empty): denormalised non-negative counts,
  // bit-identical to the direct StgnnDjdModel::Forward +
  // Denormalize + Relu path on the same window.
  tensor::Tensor predictions;
  int slot = -1;               // resolved slot the prediction is for
  uint64_t model_version = 0;  // snapshot that produced it
  int batch_size = 0;          // size of the micro-batch that served it
  int64_t latency_ns = 0;      // submit -> response

  bool ok() const { return kind == Kind::kOk; }
};

struct ServiceOptions {
  // Worker threads draining the queue. Model execution itself is
  // serialised by the engine (the kernels already fan out on the shared
  // thread pool), so extra workers overlap feature assembly / response
  // slicing with the forward.
  int num_workers = 1;
  // Pending station-set queries coalesced into one Forward call.
  int max_batch = 16;
  // Bound on queued requests; submits beyond it are rejected immediately.
  int max_queue = 256;
  // Dequeue linger: when a worker would start a batch smaller than
  // max_batch, wait up to this long for the queue to fill before
  // coalescing. 0 (default) dequeues immediately — the original behavior.
  // At saturation with many submitter threads racing the workers, a few
  // milliseconds of linger trades bounded extra queueing latency for
  // consistently full batches (one engine execution serves the whole
  // batch, so fuller batches are strictly higher throughput).
  int64_t batch_linger_us = 0;
};

// Counts since construction. batch_size_counts[b] = number of micro-
// batches that served exactly b requests (index 0 unused).
struct ServiceStats {
  int64_t submitted = 0;
  int64_t served = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t failed = 0;
  int64_t batches = 0;
  // Batches that ran the full cold prefix — window assembly, embeddings,
  // FCG build — instead of replaying a SlotCache entry. With the cache on,
  // steady state is one assembly per (slot, snapshot); with it off, every
  // batch assembles.
  int64_t assemblies = 0;
  std::vector<int64_t> batch_size_counts;
};

// In-process micro-batching inference service over an InferenceEngine.
//
// Request path: SubmitAsync bounds-checks the queue (admission control)
// and enqueues; a worker drains up to max_batch queued requests that
// resolve to the same slot, sheds any whose deadline has passed, runs one
// engine execution for the slot, and slices each caller's station rows out
// of the shared [rows, 2*horizon] output. Batching therefore amortises the
// whole network forward across every query for the slot, and the
// per-request work is O(stations requested).
//
// Every response is accounted exactly once: served, shed (queue_full /
// deadline), or failed with a typed status — Stop() drains the queue
// before the workers exit, so no request is ever silently dropped.
//
// Engines: the two-argument constructor wraps the given (registry, ring)
// in an owned LocalEngine — the unsharded single-process service, whose
// slot cache memoises the cold prefix per (slot, snapshot version); served
// rows are bit-identical to the direct forward (pinned by
// tests/serve_cache_test.cc). The engine constructor serves any
// InferenceEngine — the sharded fleet runs one service per ShardEngine, so
// each shard keeps its own queue, batching, and shedding. Requests naming
// stations the engine does not serve fail typed; empty-station requests
// return the engine's rows in engine-row order (all stations for a local
// engine, the owned rows for a shard).
class PredictionService {
 public:
  // Convenience: builds and owns a LocalEngine over (registry, ring). At
  // most one LocalEngine (and therefore one such service) per FeatureRing.
  PredictionService(ModelRegistry* registry, FeatureRing* ring,
                    ServiceOptions options);
  // Serves a caller-owned engine (must outlive the service).
  PredictionService(InferenceEngine* engine, ServiceOptions options);
  ~PredictionService();  // Stop()s if still running

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Spawns the worker threads. Requests may be submitted before Start;
  // they wait in the queue (still subject to the queue bound).
  void Start();

  // Stops accepting new requests, drains the queue, and joins the
  // workers. Idempotent.
  void Stop();

  // Enqueues a request. The future always receives exactly one response:
  // immediately for admission rejects and post-Stop submits, otherwise
  // when a worker serves or sheds the request.
  std::future<PredictResponse> SubmitAsync(PredictRequest request);

  // Blocking convenience wrapper.
  PredictResponse Predict(PredictRequest request);

  ServiceStats stats() const;
  const LatencyHistogram& latency_histogram() const { return latency_; }
  const ServiceOptions& options() const { return options_; }
  const InferenceEngine& engine() const { return *engine_; }
  // Hit/miss/invalidation counts of the engine's slot cache.
  const SlotCacheStats& cache_stats() const { return engine_->cache_stats(); }

 private:
  struct Entry {
    PredictRequest request;
    std::promise<PredictResponse> promise;
    int64_t submit_ns = 0;
  };

  void WorkerLoop();
  void ServeBatch(int slot, std::vector<Entry> batch);
  // Fills the bookkeeping fields and fulfils the promise.
  void Respond(Entry* entry, PredictResponse response);

  // Engine construction order matters: the owned LocalEngine (when used)
  // registers with the ring before the workers exist and deregisters after
  // they are joined.
  std::unique_ptr<InferenceEngine> owned_engine_;
  InferenceEngine* const engine_;
  const ServiceOptions options_;

  mutable std::mutex mu_;  // guards queue_, stats_, stop_, workers started
  std::condition_variable cv_;
  std::deque<Entry> queue_;
  bool stop_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
  ServiceStats stats_;

  LatencyHistogram latency_;
};

}  // namespace stgnn::serve

#endif  // STGNN_SERVE_PREDICTION_SERVICE_H_
