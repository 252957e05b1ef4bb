// The STGNN-DJD benchmark program: serving, slot turnover, online training
// and sharded fan-out, end to end and per layer.
//
//   stgnn_perfbench --workload serve_hot|online_train|shard_fanout
//                   --seed N --seconds S --trace 0|1
//                   [--smoke] [--corrupt-one] [--trace-out PATH]
//                   [--commit TEXT] [--source-digest TEXT]
//
// One process drives one workload through the public APIs of serve, core,
// online and nn/autograd. The load generator is this thread (asynchronous
// submits). A serving run is a series of rounds: open loop and closed loop
// on a frozen ring, then slot turnovers, one at a time, on the idle service.
// Every served response and every training round is checked (see
// CheckServed / the online episode replay); a failed check prints the reason
// to stderr and exits 1 without a result. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the workload runs twice in
// the same process, half of --seconds each — untraced, then with the
// benchmark's own spans on — and the metrics are the per-layer set,
// including the traced-minus-untraced overhead. Spans are recorded only from this file, around calls into the
// library; nothing under src/ is instrumented for the benchmark.
//
// perfbench/README.md defines every metric per workload.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/buffer_pool.h"
#include "common/counters.h"
#include "common/cpuid.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/config.h"
#include "core/stgnn_djd.h"
#include "data/city_simulator.h"
#include "data/flow_dataset.h"
#include "data/window.h"
#include "graph/partition.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "online/online_trainer.h"
#include "serve/engine.h"
#include "serve/feature_ring.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/shard_router.h"
#include "tensor/tensor.h"

namespace {

using namespace stgnn;
using serve::PredictRequest;
using serve::PredictResponse;
using Kind = PredictResponse::Kind;

int64_t Now() { return common::trace::NowNs(); }
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
void SleepUntil(int64_t target_ns) {
  const int64_t wait = target_ns - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", why.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // tiny n, short phases: the benchmark's own test
  bool corrupt_one = false;  // flips one bit of one response (gate self-test)
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--corrupt-one") {
      args.corrupt_one = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--commit") {
      args.commit = value();
    } else if (flag == "--source-digest") {
      args.source_digest = value();
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if (!have_workload || args.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --workload and --seconds > 0 required\n");
    std::exit(2);
  }
  return args;
}

// ---------------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile that still has at least ten samples beyond it
// (sorted ascending, index n - 11), and at least the nearest-rank p90:
// below 100 samples the first rank falls under p90, down to the median at
// 21 samples. The percentile and sample count are reported with the value.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t p90 = static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n))) - 1;
  const size_t idx = n >= 11 ? std::max(n - 11, p90) : p90;
  tail.value = v[idx];
  tail.percentile = 100.0 * static_cast<double>(idx + 1) / v.size();
  return tail;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count / percentile, printed on the human line
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    for (Metric& m : list_) {
      if (m.name == name) {
        m = {name, value, unit, note};
        return;
      }
    }
    list_.push_back({name, value, unit, note});
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : list_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

std::string Note(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// ---------------------------------------------------------------- tracing

// The benchmark's own span recorder: name, start, end, parent and a shared
// id per query. Kept in memory, written as Chrome-trace JSON at the end.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  // index into the span list, -1 = root
  int tid = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }

  int64_t Add(const char* name, int64_t start, int64_t end, int64_t id,
              int64_t parent, int tid) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, id, parent, tid});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// Times one call into the library; records a span when tracing is on and
// always returns the duration (per-layer samples need it either way).
class Timed {
 public:
  Timed(const char* name, int tid, int64_t id = 0)
      : name_(name), tid_(tid), id_(id), start_(Now()) {}
  int64_t Stop() {
    const int64_t end = Now();
    if (g_tracer.enabled()) g_tracer.Add(name_, start_, end, id_, -1, tid_);
    return end - start_;
  }
  int64_t start() const { return start_; }

 private:
  const char* name_;
  int tid_;
  int64_t id_;
  int64_t start_;
};

enum Tid { kGeneratorTid = 1, kIngestTid = 2, kWorkerTid = 3, kReplayTid = 4 };

// Self time per layer (the span name's prefix before '.'): each span's
// duration minus the part its children cover.
std::map<std::string, double> SelfMsByLayer(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const int64_t own =
        std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - child_ns[i]);
    self[layer] += Ms(own);
  }
  return self;
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"id\": %lld, \"parent\": %lld}}",
                 i == 0 ? "" : ",\n", s.name, s.tid, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------- host

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// (steal, total) jiffies of the whole host from /proc/stat: the share of
// CPU time the hypervisor gave to other guests while the run measured.
std::pair<int64_t, int64_t> StealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  int64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t total = 0;
  for (int64_t& x : v) {
    stat >> x;
    total += x;
  }
  return {v[7], total};
}

// Share of the host's CPU time the hypervisor gave to other guests between
// two readings of StealJiffies().
double StealShare(const std::pair<int64_t, int64_t>& a,
                  const std::pair<int64_t, int64_t>& b) {
  return Ratio(static_cast<double>(b.first - a.first),
               static_cast<double>(b.second - a.second));
}

// Marks the quietest third (rounded up) of a run's repetitions — serving
// rounds or online episodes: those during which the hypervisor stole the
// least CPU time from this guest; ties keep the earlier. On a shared host
// steal comes in bursts of seconds, and a stolen stretch slows every
// parallel kernel several fold, so statistics over the quietest third
// measure the program rather than its neighbours.
std::vector<bool> Quietest(const std::vector<double>& steal) {
  std::vector<size_t> order(steal.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> keep(steal.size(), false);
  for (size_t i = 0; i < (steal.size() + 2) / 3; ++i) keep[order[i]] = true;
  return keep;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

int64_t Counter(const char* name) {
  return common::counters::FindOrCreate(name)->value();
}

struct CounterWindow {
  int64_t flops = 0, bytes = 0, caller_wait_ns = 0, idle_ns = 0, ns = 0;
  static CounterWindow Read() {
    return {Counter("flops.matmul"), Counter("bytes.matmul_in"),
            Counter("pool.caller_wait_ns"), Counter("pool.worker_idle_ns"),
            Now()};
  }
  // Adds what the counters (and the clock) moved from `a` to `b`.
  void AddDelta(const CounterWindow& a, const CounterWindow& b) {
    flops += b.flops - a.flops;
    bytes += b.bytes - a.bytes;
    caller_wait_ns += b.caller_wait_ns - a.caller_wait_ns;
    idle_ns += b.idle_ns - a.idle_ns;
    ns += b.ns - a.ns;
  }
};

// ---------------------------------------------------------------- digests

// FNV-1a over the slot and the raw float bits of the rows, in row order.
class Fnv {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void MixFloat(float value) {
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

uint64_t ResponseDigest(int slot, const tensor::Tensor& rows) {
  Fnv h;
  h.Mix(static_cast<uint64_t>(slot));
  for (int64_t i = 0; i < rows.size(); ++i) h.MixFloat(rows.flat(i));
  return h.value();
}

// Digest of the rows a request for `stations` (empty = all) would receive
// from the full [n, c] prediction matrix.
uint64_t ExpectedDigest(int slot, const tensor::Tensor& full,
                        const std::vector<int>& stations) {
  Fnv h;
  h.Mix(static_cast<uint64_t>(slot));
  const int n = full.dim(0);
  const int c = full.dim(1);
  auto mix_row = [&](int r) {
    for (int j = 0; j < c; ++j) h.MixFloat(full.flat(int64_t{r} * c + j));
  };
  if (stations.empty()) {
    for (int r = 0; r < n; ++r) mix_row(r);
  } else {
    for (int r : stations) mix_row(r);
  }
  return h.value();
}

uint64_t ParamDigest(const std::vector<tensor::Tensor>& params) {
  Fnv h;
  for (const tensor::Tensor& p : params) {
    for (int64_t i = 0; i < p.size(); ++i) h.MixFloat(p.flat(i));
  }
  return h.value();
}

// ---------------------------------------------------------------- fixture

// Model config is the serving config: k=8 d=1 fcg=1 pcg=1 heads=2, fp32.
core::StgnnConfig ServingConfig() {
  core::StgnnConfig config;
  config.short_term_slots = 8;
  config.long_term_days = 1;
  config.fcg_layers = 1;
  config.pcg_layers = 1;
  config.attention_heads = 2;
  config.dropout = 0.0f;
  config.horizon = 1;
  config.seed = 7;
  config.infer_precision = tensor::Precision::kFp32;
  return config;
}

struct CityPlan {
  int n = 256;
  int days = 3;
  bool drift = false;  // the stgnn_drift city: calm background + shock
  int shock_day = -1;
};

data::CityConfig MakeCity(const CityPlan& plan, uint64_t seed) {
  data::CityConfig city = data::CityConfig::Tiny();
  city.name = "perfbench-" + std::to_string(plan.n);
  city.num_districts = 16;
  city.stations_per_district = plan.n / 16;
  city.slot_minutes = 60;
  city.num_days = plan.days;
  // A steady activity level: with the default weather process the trip
  // volume (and with it set-up time and the FCG's density) swings several
  // fold from one seed to the next.
  city.daily_activity_sigma = 0.1;
  city.block_activity_sigma = 0.1;
  if (plan.drift) {
    city.daily_activity_sigma = 0.25;
    city.block_activity_sigma = 0.15;
    city.shock_day = plan.shock_day;
    city.shock_log_activity = 1.2;
  }
  city.seed = 20220713ull + seed * 7919ull;
  return city;
}

// City, flows, model and first snapshot. The ring (or fleet) is owned by
// the workload, because its shape differs per workload.
struct Fixture {
  std::unique_ptr<data::FlowDataset> flow;
  core::StgnnConfig config;
  float scale = 1.0f;
  std::unique_ptr<data::MinMaxNormalizer> normalizer;
  std::shared_ptr<const core::StgnnDjdModel> model;
  int num_districts = 16;
  int per_district = 1;

  serve::ModelSnapshot Snapshot() const {
    return serve::ModelSnapshot(model, *normalizer, scale, config);
  }
  data::StHistory History(int t) const {
    return data::BuildStHistory(*flow, t, config.short_term_slots,
                                config.long_term_days, scale);
  }
};

std::unique_ptr<Fixture> BuildFixture(const CityPlan& plan, uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  const data::CityConfig city = MakeCity(plan, seed);
  fx->num_districts = city.num_districts;
  fx->per_district = city.stations_per_district;
  data::TripDataset trips = data::CitySimulator(city).Generate();
  data::CleanseTrips(&trips);
  // The drift city trains on its first half (as stgnn_drift trains on a
  // pre-shock week), validates on one day and streams the rest.
  fx->flow = std::make_unique<data::FlowDataset>(
      plan.drift ? data::BuildFlowDataset(trips, 0.5, 1.0 / plan.days)
                 : data::BuildFlowDataset(trips));
  fx->config = ServingConfig();
  fx->scale = fx->config.input_scale_multiplier / fx->flow->max_train_flow;
  common::Rng rng(fx->config.seed);
  fx->model = std::make_shared<const core::StgnnDjdModel>(
      fx->flow->num_stations, fx->config, &rng);
  fx->normalizer = std::make_unique<data::MinMaxNormalizer>(
      data::MinMaxNormalizer::Fit(fx->flow->demand, fx->flow->supply,
                                  fx->flow->train_end));
  return fx;
}

// Direct path every served row must equal bitwise: Forward -> Denormalize
// -> Relu on the same (slot, model).
class Reference {
 public:
  explicit Reference(const Fixture* fx) : fx_(fx) {}

  const tensor::Tensor& Rows(int slot, const core::StgnnDjdModel* model) {
    auto key = std::make_pair(slot, model);
    auto it = rows_.find(key);
    if (it != rows_.end()) return it->second;
    const autograd::Variable out =
        model->Forward(fx_->History(slot), /*training=*/false, nullptr);
    tensor::Tensor rows =
        tensor::Relu(fx_->normalizer->Denormalize(out.value()));
    return rows_.emplace(key, std::move(rows)).first->second;
  }

  // RMSE in trips of the slot's full forecast against the observed
  // demand/supply.
  double Rmse(int slot, const core::StgnnDjdModel* model) {
    const tensor::Tensor& rows = Rows(slot, model);
    const tensor::Tensor target = data::TargetAt(*fx_->flow, slot);
    double sum = 0.0;
    for (int64_t i = 0; i < rows.size(); ++i) {
      const double e = rows.flat(i) - target.flat(i);
      sum += e * e;
    }
    return std::sqrt(sum / std::max<int64_t>(1, rows.size()));
  }

 private:
  const Fixture* fx_;
  std::map<std::pair<int, const core::StgnnDjdModel*>, tensor::Tensor> rows_;
};

// ---------------------------------------------------------------- queries

// The district mix: seven single-district requests (districts hop in a
// fixed order), then one full-city request.
struct Mix {
  int num_districts = 16;
  int per_district = 1;

  std::vector<int> Stations(int64_t i) const {
    std::vector<int> stations;
    if (i % 8 == 7) return stations;
    const int d = static_cast<int>((static_cast<uint64_t>(i) * 131) %
                                   static_cast<uint64_t>(num_districts));
    for (int s = d * per_district; s < (d + 1) * per_district; ++s) {
      stations.push_back(s);
    }
    return stations;
  }
  PredictRequest Make(int64_t i) const {
    PredictRequest request;
    request.stations = Stations(i);
    return request;
  }
};

struct QueryRecord {
  int64_t index = 0;
  int phase = 0;  // 0 open loop, 1 closed loop, 2 turnover probe
  int round = -1;  // serving round; -1 during warm-up
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  Kind kind = Kind::kFailed;
  int slot = -1;
  uint64_t version = 0;
  int64_t latency_ns = 0;  // the service's submit -> response
  uint64_t digest = 0;
  std::string error;

  int64_t done_ns() const { return submit_ns + latency_ns; }
  double from_due_ms() const { return Ms(done_ns() - due_ns); }
  bool ok() const { return kind == Kind::kOk; }
};

using SubmitFn = std::function<std::future<PredictResponse>(PredictRequest)>;

// Collects responses into records. The latency clock is the service's own
// (submit -> response, on common::trace::NowNs), so the time the generator
// takes to notice a finished future never enters a latency.
class LoadGen {
 public:
  LoadGen(SubmitFn submit, Mix mix)
      : submit_(std::move(submit)), mix_(mix) {}

  // Gate self-test: the next OK response loses its lowest mantissa bit.
  void CorruptNextResponse() { corrupt_ = true; }
  // Round that the records made from now on belong to.
  void set_round(int round) { round_ = round; }

  // Open loop: query i is due at start + i / rate, sent then or as soon as
  // the generator can; latency counts from the due time.
  void OpenLoop(double rate, int64_t start, int64_t end) {
    const double step_ns = 1e9 / rate;
    for (int64_t i = 0;; ++i) {
      const int64_t due = start + static_cast<int64_t>(i * step_ns);
      if (due >= end) break;
      Harvest(/*block=*/false);
      SleepUntil(due);
      Send(due, /*phase=*/0);
      lag_ms_.push_back(Ms(records_.back().submit_ns - due));
    }
    Harvest(/*block=*/true);
  }

  // Closed loop: a fixed window of queries in flight until `end`. Returns
  // the successful responses completed before `end`, per second.
  double ClosedLoop(int window, int64_t end) {
    const size_t first = records_.size();
    const int64_t start = Now();
    while (Now() < end) {
      while (static_cast<int>(pending_.size()) < window) Send(Now(), 1);
      Complete(&pending_.front());
      pending_.pop_front();
    }
    Harvest(/*block=*/true);
    int64_t done = 0;
    for (size_t i = first; i < records_.size(); ++i) {
      done += records_[i].ok() && records_[i].done_ns() < end;
    }
    return static_cast<double>(done) * 1e9 /
           static_cast<double>(std::max<int64_t>(1, end - start));
  }

  // One blocking full-city probe (slot turnover measurement).
  const QueryRecord& Probe() {
    const int64_t now = Now();
    records_.push_back(QueryRecord{});
    QueryRecord& r = records_.back();
    r.index = -1;
    r.phase = 2;
    r.round = round_;
    r.due_ns = now;
    r.submit_ns = now;
    Pending p{records_.size() - 1, submit_(PredictRequest{})};
    Complete(&p);
    return records_[p.record];
  }

  std::vector<QueryRecord>& records() { return records_; }
  const std::vector<double>& lag_ms() const { return lag_ms_; }

 private:
  struct Pending {
    size_t record;
    std::future<PredictResponse> future;
  };

  void Send(int64_t due, int phase) {
    QueryRecord r;
    r.index = next_index_++;
    r.phase = phase;
    r.round = round_;
    r.due_ns = due;
    r.submit_ns = Now();
    records_.push_back(r);
    pending_.push_back({records_.size() - 1, submit_(mix_.Make(r.index))});
  }

  void Complete(Pending* p) {
    PredictResponse response = p->future.get();
    QueryRecord& r = records_[p->record];
    r.kind = response.kind;
    r.slot = response.slot;
    r.version = response.model_version;
    r.latency_ns = response.latency_ns;
    if (response.ok()) {
      if (corrupt_ && response.predictions.size() > 0) {
        float& v = response.predictions.mutable_data()[0];
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        bits ^= 1u;
        std::memcpy(&v, &bits, sizeof(bits));
        corrupt_ = false;
      }
      r.digest = ResponseDigest(response.slot, response.predictions);
    } else {
      r.error = response.status.ToString();
    }
  }

  void Harvest(bool block) {
    while (!pending_.empty()) {
      if (!block && pending_.front().future.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        return;
      }
      Complete(&pending_.front());
      pending_.pop_front();
    }
  }

  SubmitFn submit_;
  Mix mix_;
  bool corrupt_ = false;
  int round_ = -1;
  int64_t next_index_ = 0;
  std::vector<QueryRecord> records_;
  std::deque<Pending> pending_;
  std::vector<double> lag_ms_;
};

// ---------------------------------------------------------------- workloads

// Micro-batch bound of every service; the closed loop keeps 4x in flight.
constexpr int kMaxBatch = 16;
// Queue bound of every service and the router: far above anything the load
// can queue, so a stalled host shows as latency, never as shed queries.
constexpr int kMaxQueue = 1 << 20;

// Fixed per-workload parameters; BENCHMARK.json's "why" repeats them.
struct WorkloadSpec {
  int n = 256;
  double open_rate = 0.0;           // queries/s in the open-loop phase
  double round_s = 2.0;             // length of one serving round
  double open_share = 0.6;          // share of each round spent open loop
  double limit_ms = 0.0;            // latency limit of answer_slo_ratio
  int turnovers = 0;                // slot turnovers, spread over the rounds
  int republish_every = 0;          // turnovers between republishes; 0 = never
};

WorkloadSpec SpecFor(const std::string& name, bool smoke) {
  WorkloadSpec s;
  if (name == "serve_hot") {
    s.n = 256;
    s.open_rate = 500.0;
    s.round_s = 1.0;
    s.limit_ms = 100.0;
    s.turnovers = 100;
    s.republish_every = 8;
  } else if (name == "shard_fanout") {
    s.n = 512;
    s.open_rate = 30.0;
    s.limit_ms = 500.0;
    s.turnovers = 36;
  } else if (name == "online_train") {
    s.n = 256;
    s.limit_ms = 3000.0;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", name.c_str());
    std::exit(2);
  }
  if (smoke) {
    s.n = 32;
    if (s.open_rate > 0.0) s.open_rate = 100.0;
    s.turnovers = s.turnovers > 0 ? 12 : 0;
    s.republish_every = s.republish_every > 0 ? 4 : 0;
    s.limit_ms *= 4.0;
  }
  return s;
}

// What a serving pass measured, for the metrics and the gate.
struct IngestEvent {
  int slot = -1;  // slot pushed; its forecast is slot + 1
  int64_t push_start = 0;
  int64_t push_end = 0;
  bool ok = true;
  double history_ms = -1.0;
  double context_ms = -1.0;
};

struct ExecRecord {
  int64_t start = 0;
  int64_t end = 0;
  int slot = -1;
  uint64_t version = 0;
  bool assembled = false;
};

// Traced runs only: the benchmark-owned LocalEngine wrapper, so Execute is
// timed from outside the library.
class TimedEngine : public serve::InferenceEngine {
 public:
  TimedEngine(serve::ModelRegistry* registry, serve::FeatureRing* ring)
      : inner_(registry, ring) {}
  int num_stations() const override { return inner_.num_stations(); }
  int num_rows() const override { return inner_.num_rows(); }
  int row_of(int station) const override { return inner_.row_of(station); }
  int next_slot() const override { return inner_.next_slot(); }
  const serve::SlotCacheStats& cache_stats() const override {
    return inner_.cache_stats();
  }
  Result<serve::EngineOutput> Execute(int slot) override {
    const int64_t start = Now();
    Result<serve::EngineOutput> out = inner_.Execute(slot);
    const int64_t end = Now();
    if (out.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      records_.push_back({start, end, slot, (*out).model_version, (*out).assembled});
    }
    return out;
  }
  std::vector<ExecRecord> records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  serve::LocalEngine inner_;
  mutable std::mutex mu_;
  std::vector<ExecRecord> records_;
};

struct ServeCounts {
  int64_t batches = 0, served = 0, assemblies = 0, shed = 0, failed = 0;
  uint64_t hits = 0, misses = 0;
};

struct RouterCounts {
  int64_t fanouts = 0, served = 0, retries = 0, version_rejects = 0;
  int64_t shard_batches = 0, shard_served = 0, halo_rows = 0, contexts = 0;
};

struct PassResult {
  std::vector<QueryRecord> records;
  std::vector<double> lag_ms;
  std::vector<IngestEvent> ingest;
  std::vector<std::pair<uint64_t, double>> publishes;  // version, ms
  std::vector<ExecRecord> exec;
  std::vector<double> fresh_ms;  // turnovers: Push start -> first forecast
  std::vector<int> fresh_round;  // the round of each fresh_ms sample
  std::vector<double> closed_rps;  // one per round
  std::vector<double> round_steal;  // host steal share during each round
  CounterWindow counters;          // moved during the timed phases
  ServeCounts serve;
  RouterCounts router;
};

// The serving stack a pass drives: an unsharded service over a LocalEngine
// (optionally wrapped), or a ShardFleet behind a ShardRouter.
class ServingStack {
 public:
  virtual ~ServingStack() = default;
  virtual SubmitFn submit() = 0;
  // Ingest slot `slot` (the ring frontier); times what it can.
  virtual IngestEvent Ingest(int slot, const Fixture& fx) = 0;
  virtual uint64_t Publish(const Fixture& fx) = 0;
  virtual std::shared_ptr<const serve::ModelSnapshot> Current() const = 0;
  virtual int Frontier() const = 0;
  // Starts serving for one pass (`traced`: time Execute from outside where
  // the stack allows it), and stops it again.
  virtual void BeginPass(bool traced) = 0;
  virtual void EndPass() = 0;
  virtual void Collect(PassResult* result) = 0;
};

class LocalStack : public ServingStack {
 public:
  LocalStack(const Fixture& fx, int warm_frontier) {
    ring_ = std::make_unique<serve::FeatureRing>(
        fx.flow->num_stations, fx.config.short_term_slots,
        fx.config.long_term_days, fx.flow->slots_per_day, fx.scale);
    for (int t = 0; t < warm_frontier; ++t) {
      const Status st = ring_->Push(t, fx.flow->inflow[t], fx.flow->outflow[t]);
      if (!st.ok()) Fail("warm-up push: " + st.ToString());
    }
    registry_.Publish(fx.Snapshot());
  }

  void BeginPass(bool traced) override {
    serve::ServiceOptions options;
    options.num_workers = 2;
    options.max_batch = kMaxBatch;
    options.max_queue = kMaxQueue;
    if (traced) {
      timed_ = std::make_unique<TimedEngine>(&registry_, ring_.get());
      service_ =
          std::make_unique<serve::PredictionService>(timed_.get(), options);
    } else {
      service_ = std::make_unique<serve::PredictionService>(
          &registry_, ring_.get(), options);
    }
    service_->Start();
  }
  void EndPass() override {
    service_->Stop();
    service_.reset();
    timed_.reset();
  }

  SubmitFn submit() override {
    return [this](PredictRequest r) { return service_->SubmitAsync(std::move(r)); };
  }
  IngestEvent Ingest(int slot, const Fixture& fx) override {
    IngestEvent e;
    e.slot = slot;
    Timed push("ring.push", kIngestTid);
    e.push_start = push.start();
    e.ok = ring_->Push(slot, fx.flow->inflow[slot], fx.flow->outflow[slot]).ok();
    e.push_end = e.push_start + push.Stop();
    if (g_tracer.enabled()) {
      Timed history("ring.history", kIngestTid);
      const bool ok = ring_->History(slot + 1).ok();
      e.history_ms = Ms(history.Stop());
      if (!ok) e.ok = false;
    }
    return e;
  }
  uint64_t Publish(const Fixture& fx) override {
    return registry_.Publish(fx.Snapshot());
  }
  std::shared_ptr<const serve::ModelSnapshot> Current() const override {
    return registry_.Current();
  }
  int Frontier() const override { return ring_->next_slot(); }
  void Collect(PassResult* result) override {
    const serve::ServiceStats stats = service_->stats();
    const serve::SlotCacheStats& cache = service_->cache_stats();
    result->serve = {stats.batches,
                     stats.served,
                     stats.assemblies,
                     stats.shed_queue_full + stats.shed_deadline,
                     stats.failed,
                     cache.hits.load(),
                     cache.misses.load()};
    if (timed_) result->exec = timed_->records();
  }

 private:
  std::unique_ptr<serve::FeatureRing> ring_;
  serve::ModelRegistry registry_;
  std::unique_ptr<TimedEngine> timed_;
  std::unique_ptr<serve::PredictionService> service_;
};

class FleetStack : public ServingStack {
 public:
  FleetStack(const Fixture& fx, int warm_frontier) {
    const graph::Partition partition =
        graph::PartitionStations(fx.num_districts, fx.per_district, 4);
    serve::ShardFleetOptions options;
    options.service.num_workers = 1;
    options.service.max_batch = kMaxBatch;
    options.service.max_queue = kMaxQueue;
    fleet_ = std::make_unique<serve::ShardFleet>(
        partition, fx.config.short_term_slots, fx.config.long_term_days,
        fx.flow->slots_per_day, fx.scale, options);
    for (int t = 0; t < warm_frontier; ++t) {
      const Status st = fleet_->Push(t, fx.flow->inflow[t], fx.flow->outflow[t]);
      if (!st.ok()) Fail("fleet warm-up push: " + st.ToString());
    }
    fleet_->Publish(fx.Snapshot());
  }
  ~FleetStack() override {
    if (router_) router_->Stop();
    fleet_->Stop();
  }

  // Router and fleet start once and run across both passes of a traced run
  // (a stopped service does not restart); each pass reads deltas.
  void BeginPass(bool /*traced*/) override {
    if (router_ == nullptr) Start();
    halo_before_ = Counter("serve.shard.halo_rows");
    contexts_ = 0;
    base_ = Counts();
  }
  void EndPass() override {}

  SubmitFn submit() override {
    return [this](PredictRequest r) { return router_->SubmitAsync(std::move(r)); };
  }
  IngestEvent Ingest(int slot, const Fixture& fx) override {
    IngestEvent e;
    e.slot = slot;
    Timed push("ring.push", kIngestTid);
    e.push_start = push.start();
    e.ok = fleet_->Push(slot, fx.flow->inflow[slot], fx.flow->outflow[slot]).ok();
    e.push_end = e.push_start + push.Stop();
    // The halo exchange for the new frontier is built right away, so the
    // first query of the slot finds every shard's context ready.
    Timed ctx("shard.ensure_context", kIngestTid);
    const Status st =
        fleet_->EnsureContext(fleet_->next_slot(), fleet_->current_version());
    e.context_ms = Ms(ctx.Stop());
    ++contexts_;
    if (!st.ok()) e.ok = false;
    return e;
  }
  uint64_t Publish(const Fixture& fx) override {
    return fleet_->Publish(fx.Snapshot());
  }
  std::shared_ptr<const serve::ModelSnapshot> Current() const override {
    return fleet_->Current();
  }
  int Frontier() const override { return fleet_->next_slot(); }
  void Collect(PassResult* result) override {
    const serve::RouterStats stats = router_->stats();
    RouterCounts c;
    c.fanouts = stats.fanouts - base_.fanouts;
    c.served = stats.served - base_.served;
    c.retries = stats.retries - base_.retries;
    c.version_rejects = stats.version_rejects - base_.version_rejects;
    for (int s = 0; s < fleet_->num_shards(); ++s) {
      const serve::ServiceStats shard = fleet_->service(s)->stats();
      c.shard_batches += shard.batches;
      c.shard_served += shard.served;
      result->serve.shed += shard.shed_queue_full + shard.shed_deadline;
      result->serve.failed += shard.failed;
    }
    c.shard_batches -= base_.shard_batches;
    c.shard_served -= base_.shard_served;
    c.halo_rows = Counter("serve.shard.halo_rows") - halo_before_;
    c.contexts = contexts_;
    result->router = c;
  }

 private:
  // Router workers stay within the host's cores.
  void Start() {
    serve::RouterOptions options;
    options.num_workers = std::min(4, std::max(1, common::HardwareThreads()));
    options.max_queue = kMaxQueue;
    router_ = std::make_unique<serve::ShardRouter>(fleet_.get(), options);
    fleet_->Start();
    router_->Start();
    // The frontier's halo exchange runs once before timing, as the local
    // engine's cold prefix does in the warm-up probe.
    const Status warmed =
        fleet_->EnsureContext(fleet_->next_slot(), fleet_->current_version());
    if (!warmed.ok()) Fail("fleet warm-up context: " + warmed.ToString());
  }

  RouterCounts Counts() const {
    RouterCounts c;
    const serve::RouterStats stats = router_->stats();
    c.fanouts = stats.fanouts;
    c.served = stats.served;
    c.retries = stats.retries;
    c.version_rejects = stats.version_rejects;
    for (int s = 0; s < fleet_->num_shards(); ++s) {
      const serve::ServiceStats shard = fleet_->service(s)->stats();
      c.shard_batches += shard.batches;
      c.shard_served += shard.served;
    }
    return c;
  }

  std::unique_ptr<serve::ShardFleet> fleet_;
  std::unique_ptr<serve::ShardRouter> router_;
  int64_t halo_before_ = 0;
  int64_t contexts_ = 0;
  RouterCounts base_;
};

// ---------------------------------------------------------------- checks

struct GateResult {
  int64_t checked = 0;
  uint64_t served_sum = 0;     // order-independent: wrapping sum of digests
  uint64_t reference_sum = 0;  // same over the direct-path replay
  double rmse = 0.0;           // mean per-slot forecast RMSE, trips
};

// Every OK response for a sampled slot must be bitwise equal to the direct
// Forward -> Denormalize -> Relu rows of its (slot, version). Slots are
// sampled every `stride` from the first one served, which always includes
// the first timed response.
GateResult CheckServed(const std::vector<QueryRecord>& records, const Mix& mix,
                       const std::map<uint64_t, const core::StgnnDjdModel*>&
                           models,
                       Reference* reference, int stride) {
  GateResult gate;
  std::set<int> slots;
  int first_slot = std::numeric_limits<int>::max();
  for (const QueryRecord& r : records) {
    if (r.ok()) first_slot = std::min(first_slot, r.slot);
  }
  for (const QueryRecord& r : records) {
    if (!r.ok() || (r.slot - first_slot) % stride != 0) continue;
    auto it = models.find(r.version);
    if (it == models.end()) {
      Fail("response from unknown model version " + std::to_string(r.version));
    }
    const tensor::Tensor& full = reference->Rows(r.slot, it->second);
    const std::vector<int> stations =
        r.index >= 0 ? mix.Stations(r.index) : std::vector<int>{};
    const uint64_t expected = ExpectedDigest(r.slot, full, stations);
    if (expected != r.digest) {
      Fail("query " + std::to_string(r.index) + " slot " +
           std::to_string(r.slot) + " v" + std::to_string(r.version) +
           ": served rows differ from the direct Forward/Denormalize/Relu");
    }
    gate.served_sum += r.digest;
    gate.reference_sum += expected;
    ++gate.checked;
    slots.insert(r.slot);
  }
  std::vector<double> rmse;
  for (int slot : slots) rmse.push_back(reference->Rmse(slot, models.begin()->second));
  gate.rmse = Mean(rmse);
  return gate;
}

// ---------------------------------------------------------------- results

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------- serving passes

struct ServeContext {
  const Args* args = nullptr;
  WorkloadSpec spec;
  Fixture* fx = nullptr;
  std::map<uint64_t, const core::StgnnDjdModel*> models;  // version -> model
};

void RecordVersion(ServeContext* ctx, ServingStack* stack) {
  const auto snap = stack->Current();
  ctx->models[snap->version] = snap->model.get();
}

// Uncontended slot turnovers on the idle service, after a round's timed
// phases: every `republish_every`-th one first republishes the same
// snapshot as a new version; then Push (on the fleet also the halo build)
// and one full-city probe, whose response is the first forecast built on
// the new slot. Each starts 25 ms after the service went idle, so the
// closed loop's last responses are done with, and they are spaced out so
// that a short stall of the host lands on one of them, not on all.
void Turnovers(ServeContext* ctx, ServingStack* stack, LoadGen* gen, int count,
               PassResult* result) {
  const WorkloadSpec& spec = ctx->spec;
  for (int i = 0; i < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const int slot = stack->Frontier();
    if (slot + 1 >= ctx->fx->flow->num_slots) break;
    const int n = static_cast<int>(result->ingest.size());
    if (spec.republish_every > 0 &&
        n % spec.republish_every == spec.republish_every - 1) {
      Timed publish("registry.publish", kIngestTid);
      const uint64_t version = stack->Publish(*ctx->fx);
      result->publishes.push_back({version, Ms(publish.Stop())});
    }
    const IngestEvent e = stack->Ingest(slot, *ctx->fx);
    if (!e.ok) Fail("turnover push of slot " + std::to_string(slot));
    result->ingest.push_back(e);
    const QueryRecord& r = gen->Probe();
    if (!r.ok() || r.slot != slot + 1) {
      Fail("turnover probe for slot " + std::to_string(slot + 1) + ": " + r.error);
    }
    result->fresh_ms.push_back(Ms(r.done_ns() - e.push_start));
    result->fresh_round.push_back(r.round);
  }
}

// One pass over the ring in rounds of about spec.round_s: the open loop,
// then the closed loop (both timed, the ring frozen), then a share of the
// slot turnovers. Interleaving the phases spreads every metric over the
// whole pass, so a slow stretch of a shared host moves a few rounds of each
// metric instead of all of one.
PassResult ServePass(ServeContext* ctx, ServingStack* stack, double seconds) {
  const WorkloadSpec& spec = ctx->spec;
  PassResult result;
  LoadGen gen(stack->submit(), Mix{ctx->fx->num_districts, ctx->fx->per_district});
  // Warm-up outside the timed window: the frontier's cold prefix and half a
  // second of closed loop, so first-use allocations do not land in the
  // first timed round.
  gen.Probe();
  gen.ClosedLoop(4 * kMaxBatch, Now() + 500'000'000);
  gen.records().clear();
  if (ctx->args->corrupt_one) gen.CorruptNextResponse();

  const int rounds = std::max(3, static_cast<int>(std::lround(seconds / spec.round_s)));
  const int64_t round_ns = static_cast<int64_t>(seconds * 1e9 / rounds);
  const int64_t open_ns = static_cast<int64_t>(round_ns * spec.open_share);
  for (int r = 0; r < rounds; ++r) {
    const auto steal_before = StealJiffies();
    gen.set_round(r);
    const CounterWindow before = CounterWindow::Read();
    const int64_t start = Now();
    gen.OpenLoop(spec.open_rate, start, start + open_ns);
    // The closed loop gets its full share even when draining the open loop
    // ran late.
    result.closed_rps.push_back(
        gen.ClosedLoop(4 * kMaxBatch, Now() + round_ns - open_ns));
    result.counters.AddDelta(before, CounterWindow::Read());
    const int turnovers =
        spec.turnovers * (r + 1) / rounds - spec.turnovers * r / rounds;
    Turnovers(ctx, stack, &gen, turnovers, &result);
    result.round_steal.push_back(StealShare(steal_before, StealJiffies()));
  }
  stack->Collect(&result);
  result.records = std::move(gen.records());
  result.lag_ms = gen.lag_ms();
  return result;
}

// Open-loop latency statistics: the queries, in the order they were due,
// are cut into consecutive spans of about 200 (at least one); the
// median and the tail are taken per span, and the median over spans
// reported. A stall on a shared host then moves a few spans, not the
// run's figure, and each span's tail sits at about p95.
struct WindowedLatency {
  double p50 = 0.0;
  Tail tail;  // value and percentile are medians over spans; samples = least
  int spans = 0;
};

WindowedLatency Windowed(const std::vector<double>& ms) {
  const size_t spans = std::max<size_t>(1, ms.size() / 200);
  std::vector<double> p50, values, percentiles;
  size_t min_samples = SIZE_MAX;
  for (size_t w = 0; w < spans; ++w) {
    const std::vector<double> span(ms.begin() + w * ms.size() / spans,
                                   ms.begin() + (w + 1) * ms.size() / spans);
    const Tail t = TailOf(span);
    p50.push_back(Median(span));
    values.push_back(t.value);
    percentiles.push_back(t.percentile);
    min_samples = std::min(min_samples, t.samples);
  }
  return {Median(p50), {Median(values), Median(percentiles), min_samples},
          static_cast<int>(spans)};
}

void AddEndToEnd(Metrics* m, const PassResult& pass, const WorkloadSpec& spec) {
  // Every statistic is taken over the quietest third of the rounds.
  const std::vector<bool> quiet = Quietest(pass.round_steal);
  const auto kept = [&](int round) { return round >= 0 && quiet[round]; };
  const double rounds = static_cast<double>(quiet.size());
  const double kept_rounds = static_cast<double>((quiet.size() + 2) / 3);
  std::vector<double> latency, closed, fresh;
  int64_t attempted = 0, within = 0;
  for (const QueryRecord& r : pass.records) {
    if (r.phase != 0 || !kept(r.round)) continue;
    ++attempted;
    if (!r.ok()) continue;
    latency.push_back(r.from_due_ms());
    if (r.from_due_ms() <= spec.limit_ms) ++within;
  }
  for (size_t i = 0; i < pass.closed_rps.size(); ++i) {
    if (quiet[i]) closed.push_back(pass.closed_rps[i]);
  }
  for (size_t i = 0; i < pass.fresh_ms.size(); ++i) {
    if (kept(pass.fresh_round[i])) fresh.push_back(pass.fresh_ms[i]);
  }
  const WindowedLatency w = Windowed(latency);
  m->Add("answer_p50_ms", w.p50, "ms",
         Note("median over %.0f spans of the span p50; %.0f open-loop queries",
              w.spans, latency.size()));
  m->Add("answer_tail_ms", w.tail.value, "ms",
         Note("median over %.0f spans of p%.2f",
              w.spans, w.tail.percentile));
  m->Add("answer_slo_ratio", Ratio(within, attempted), "ratio",
         Note("within %.0f ms of %.0f attempted", spec.limit_ms, attempted));
  m->Add("throughput_per_s", Median(closed), "1/s",
         Note("closed loop, 4 x max_batch in flight; median of %.0f rounds",
              closed.size()));
  const Tail ftail = TailOf(fresh);
  m->Add("fresh_p50_ms", Median(fresh), "ms",
         Note("p50 of %.0f slots", fresh.size()));
  m->Add("fresh_tail_ms", ftail.value, "ms",
         Note("p%.2f of %.0f slots", ftail.percentile, ftail.samples));
  std::printf("rounds: statistics over the quietest %.0f of %.0f; steal per round %%:",
              kept_rounds, rounds);
  for (double v : pass.round_steal) std::printf(" %.1f", 100.0 * v);
  std::printf("\n");
}

// Per-layer numbers of a traced serving pass.
void AddServeLayers(Metrics* m, const PassResult& pass, bool sharded) {
  // Answers of the timed phases, which the counter window covers.
  int64_t timed_answers = 0;
  for (const QueryRecord& r : pass.records) timed_answers += r.ok() && r.phase != 2;
  // serve: Execute times from the wrapper, queue wait per response.
  std::vector<double> hit, miss, wait;
  std::map<std::pair<int, uint64_t>, std::vector<const ExecRecord*>> by_key;
  for (const ExecRecord& e : pass.exec) {
    (e.assembled ? miss : hit).push_back(Ms(e.end - e.start));
    by_key[{e.slot, e.version}].push_back(&e);
  }
  for (auto& [key, list] : by_key) {
    std::sort(list.begin(), list.end(),
              [](const ExecRecord* a, const ExecRecord* b) { return a->end < b->end; });
  }
  for (const QueryRecord& r : pass.records) {
    if (!r.ok() || r.phase != 0) continue;
    // The batch that served r: the last Execute of its (slot, version) that
    // ended before the response.
    auto it = by_key.find({r.slot, r.version});
    const int64_t lat = r.latency_ns;
    if (it == by_key.end() && g_tracer.enabled()) {
      // No Execute seen from outside (the fleet's shard engines): the
      // routed request is one span.
      const int64_t q = g_tracer.Add("bench.query", r.due_ns, r.done_ns(),
                                     r.index, -1, kGeneratorTid);
      g_tracer.Add("bench.lag", r.due_ns, r.submit_ns, r.index, q, kGeneratorTid);
      g_tracer.Add(sharded ? "shard.route" : "serve.request", r.submit_ns,
                   r.done_ns(), r.index, q, kWorkerTid);
    }
    if (it != by_key.end()) {
      const ExecRecord* batch = nullptr;
      for (const ExecRecord* e : it->second) {
        if (e->end <= r.done_ns()) batch = e;
      }
      if (batch != nullptr) {
        wait.push_back(Ms(lat - (batch->end - batch->start)));
        if (g_tracer.enabled()) {
          const int64_t q = g_tracer.Add("bench.query", r.due_ns, r.done_ns(),
                                         r.index, -1, kGeneratorTid);
          g_tracer.Add("bench.lag", r.due_ns, r.submit_ns, r.index, q, kGeneratorTid);
          g_tracer.Add("serve.queue_wait", r.submit_ns, batch->start, r.index, q,
                       kWorkerTid);
          g_tracer.Add("serve.execute", batch->start, batch->end, r.index, q,
                       kWorkerTid);
          g_tracer.Add("serve.respond", batch->end, r.done_ns(), r.index, q,
                       kWorkerTid);
        }
      }
    }
  }
  const ServeCounts& s = pass.serve;
  m->Add("serve.queue_wait_ms", Median(wait), "ms",
         Note("p50 of %.0f responses", wait.size()));
  m->Add("serve.execute_hit_ms", Median(hit), "ms", Note("p50 of %.0f", hit.size()));
  m->Add("serve.execute_miss_ms", Median(miss), "ms", Note("p50 of %.0f", miss.size()));
  m->Add("serve.batch_size_mean", Ratio(s.served, s.batches), "requests");
  m->Add("serve.cache_hit_ratio", Ratio(s.hits, s.hits + s.misses), "ratio",
         Note("%.0f lookups", s.hits + s.misses));
  std::set<std::pair<int, uint64_t>> served_keys;
  for (const QueryRecord& r : pass.records) {
    if (r.ok()) served_keys.insert({r.slot, r.version});
  }
  m->Add("serve.assemblies_per_slot_version",
         Ratio(s.assemblies, served_keys.size()), "ratio",
         Note("%.0f (slot, version) pairs", served_keys.size()));
  m->Add("serve.shed", s.shed, "count");
  m->Add("serve.failed", s.failed, "count");

  // ring / registry from the slot clock.
  std::vector<double> push, history, ctx_ms;
  int64_t push_errors = 0;
  for (const IngestEvent& e : pass.ingest) {
    push.push_back(Ms(e.push_end - e.push_start));
    if (e.history_ms >= 0) history.push_back(e.history_ms);
    if (e.context_ms >= 0) ctx_ms.push_back(e.context_ms);
    push_errors += !e.ok;
  }
  std::vector<double> publish;
  for (const auto& p : pass.publishes) publish.push_back(p.second);
  m->Add("ring.push_ms", Median(push), "ms", Note("p50 of %.0f", push.size()));
  m->Add("ring.history_ms", Median(history), "ms", Note("p50 of %.0f", history.size()));
  m->Add("ring.push_errors", push_errors, "count");
  m->Add("registry.publish_ms", Median(publish), "ms", Note("p50 of %.0f", publish.size()));

  // shard: router and fleet.
  const RouterCounts& rc = pass.router;
  m->Add("shard.context_build_ms", Median(ctx_ms), "ms", Note("p50 of %.0f", ctx_ms.size()));
  m->Add("shard.fanouts_per_query", Ratio(rc.fanouts, rc.served), "ratio");
  m->Add("shard.halo_rows_per_slot", Ratio(rc.halo_rows, rc.contexts), "rows");
  m->Add("shard.retry_ratio", Ratio(rc.retries + rc.version_rejects, rc.fanouts),
         "ratio");
  m->Add("shard.batch_size_mean", Ratio(rc.shard_served, rc.shard_batches),
         "requests");

  // tensor / pool counters over the timed window.
  const CounterWindow& c = pass.counters;
  const double window_ns = static_cast<double>(c.ns);
  const int workers = std::max(1, common::GetNumThreads() - 1);
  m->Add("tensor.matmul_gflop_per_query", Ratio(c.flops / 1e9, timed_answers),
         "GFLOP", "from tensor sizes");
  m->Add("tensor.matmul_bytes_per_query", Ratio(c.bytes, timed_answers), "B",
         "operand bytes from tensor sizes");
  m->Add("pool.caller_wait_ms",
         Ratio(Ms(c.caller_wait_ns), timed_answers), "ms",
         "per answer");
  m->Add("pool.worker_idle_ratio",
         std::min(1.0, Ratio(c.idle_ns, workers * window_ns)), "ratio");
  std::vector<double> lag = pass.lag_ms;
  m->Add("bench.generator_lag_ms", Median(lag), "ms",
         Note("p50 of %.0f sends; max %.3f ms", lag.size(),
              lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end())));
}

// core: each served slot replayed uncontended through the public stage
// calls (at least five replays in all).
void AddCoreLayers(Metrics* m, const Fixture& fx, const std::vector<int>& slots,
                   double execute_miss_ms) {
  std::vector<double> emb, build, agg, pcg, head, density;
  if (!slots.empty()) {
    const core::StgnnDjdModel& model = *fx.model;
    const int reps = std::max<int>(5, std::min<int>(8, slots.size()));
    for (int i = 0; i < reps; ++i) {
      const int slot = slots[static_cast<size_t>(i) * slots.size() / reps];
      const data::StHistory history = fx.History(slot);
      Timed t1("core.embeddings", kReplayTid, slot);
      const core::StgnnDjdModel::Embeddings e = model.ComputeEmbeddings(history);
      emb.push_back(Ms(t1.Stop()));
      Timed t2("core.fcg_build", kReplayTid, slot);
      const core::FlowConvolutedGraph graph = model.BuildGraph(e);
      build.push_back(Ms(t2.Stop()));
      const autograd::Variable features =
          autograd::Variable::Constant(e.node_features);
      Timed t3("core.fcg_agg", kReplayTid, slot);
      const autograd::Variable f = model.fcg_branch()->Forward(features, graph);
      agg.push_back(Ms(t3.Stop()));
      Timed t4("core.pcg_attention", kReplayTid, slot);
      const autograd::Variable p = model.pcg_branch()->Forward(features);
      pcg.push_back(Ms(t4.Stop()));
      Timed t5("core.head", kReplayTid, slot);
      const autograd::Variable out =
          model.output_layer().Forward(autograd::Concat({f, p}, 1));
      head.push_back(Ms(t5.Stop()));
      int64_t edges = 0;
      for (float v : graph.edge_mask.data()) edges += v != 0.0f;
      const double n = graph.edge_mask.dim(0);
      density.push_back(edges / (n * n));
    }
  }
  const double total =
      Median(emb) + Median(build) + Median(agg) + Median(pcg) + Median(head);
  const std::string note = Note("p50 of %.0f replays", emb.size());
  m->Add("core.embeddings_ms", Median(emb), "ms", note);
  m->Add("core.fcg_build_ms", Median(build), "ms", note);
  m->Add("core.fcg_agg_ms", Median(agg), "ms", note);
  m->Add("core.pcg_attention_ms", Median(pcg), "ms", note);
  m->Add("core.head_ms", Median(head), "ms", note);
  m->Add("core.fcg_density", Median(density), "ratio", "edges / n^2");
  m->Add("core.stage_coverage", Ratio(total, execute_miss_ms), "ratio",
         "stage sum / serve.execute_miss_ms");
}

// ---------------------------------------------------------------- online

// Slots pushed and polled before the timed stream (see RunEpisode).
constexpr int kPreroll = 6;

struct Episode {
  std::vector<online::PollResult> preroll;
  std::vector<online::PollResult> polls;
  std::vector<double> poll_ms;      // every Poll
  std::vector<double> fresh_ms;     // Push start -> Poll return
  std::vector<double> forecast_rmse;
  int64_t steps = 0;
  double poll_seconds = 0.0;
  online::OnlineTrainerStats stats;
  uint64_t param_digest = 0;
  int push_errors = 0;
  double steal = 0.0;  // host steal share during the timed rounds
};

bool SamePoll(const online::PollResult& a, const online::PollResult& b) {
  return a.ingested_slots == b.ingested_slots && a.steps == b.steps &&
         a.evaluated == b.evaluated && a.candidate.rmse == b.candidate.rmse &&
         a.candidate.mae == b.candidate.mae && a.live.rmse == b.live.rmse &&
         a.live.mae == b.live.mae && a.published == b.published &&
         a.published_version == b.published_version;
}

online::OnlineTrainerOptions TrainerOptions(uint64_t seed) {
  online::OnlineTrainerOptions options;
  options.steps_per_round = 2;
  options.train_window = 4;
  options.holdout_slots = 2;
  options.patience = 2;
  options.seed = seed;
  return options;
}

// One deterministic episode: a fresh ring and registry warmed to the
// stream start, the untrained serving model published as v1, a trainer
// warm-started from it, then `slots` rounds of Push + synchronous Poll.
Episode RunEpisode(const Fixture& fx, int slots, uint64_t seed,
                   bool forecast_rmse) {
  Episode ep;
  const data::FlowDataset& flow = *fx.flow;
  serve::FeatureRing ring(flow.num_stations, fx.config.short_term_slots,
                          fx.config.long_term_days, flow.slots_per_day, fx.scale);
  const int begin = flow.val_end;
  for (int t = 0; t < begin - kPreroll; ++t) {
    if (!ring.Push(t, flow.inflow[t], flow.outflow[t]).ok()) Fail("online warm-up push");
  }
  serve::ModelRegistry registry;
  registry.Publish(fx.Snapshot());
  online::OnlineTrainer trainer(
      &ring, online::SnapshotChannel::ForRegistry(&registry), TrainerOptions(seed));
  if (!trainer.WarmStart().ok()) Fail("online warm start");
  // The trainer's store starts with what the ring retains (one history
  // window); the pre-roll grows it to window + train + holdout slots, so
  // every timed round trains. Pre-roll rounds are checked, not timed.
  for (int t = begin - kPreroll; t < begin; ++t) {
    if (!ring.Push(t, flow.inflow[t], flow.outflow[t]).ok()) Fail("online pre-roll push");
    Result<online::PollResult> result = trainer.Poll();
    if (!result.ok()) Fail("pre-roll Poll: " + result.status().ToString());
    ep.preroll.push_back(*result);
  }
  Reference reference(&fx);
  int64_t stolen = 0, total = 0;  // jiffies over the timed rounds
  for (int t = begin; t < begin + slots && t < flow.num_slots; ++t) {
    if (forecast_rmse) {
      // What the live model forecasts for slot t before t is observed.
      ep.forecast_rmse.push_back(reference.Rmse(t, registry.Current()->model.get()));
    }
    const auto steal_before = StealJiffies();
    Timed push("ring.push", kGeneratorTid, t);
    const int64_t push_start = push.start();
    if (!ring.Push(t, flow.inflow[t], flow.outflow[t]).ok()) ++ep.push_errors;
    push.Stop();
    Timed poll("online.poll", kGeneratorTid, t);
    Result<online::PollResult> result = trainer.Poll();
    const int64_t poll_ns = poll.Stop();
    if (!result.ok()) Fail("Poll: " + result.status().ToString());
    ep.polls.push_back(*result);
    ep.poll_ms.push_back(Ms(poll_ns));
    ep.fresh_ms.push_back(Ms(Now() - push_start));
    ep.steps += (*result).steps;
    ep.poll_seconds += poll_ns / 1e9;
    const auto steal_after = StealJiffies();
    stolen += steal_after.first - steal_before.first;
    total += steal_after.second - steal_before.second;
  }
  ep.steal = Ratio(static_cast<double>(stolen), static_cast<double>(total));
  ep.stats = trainer.stats();
  ep.param_digest = ParamDigest(trainer.ExportState().shadow_params);
  return ep;
}

// A public-call replay of the trainer's step on the workload's window:
// Forward (training), Backward, ClipGradNorm and fused Adam, timed apart.
void AddTrainStepLayers(Metrics* m, const Fixture& fx) {
  common::Rng rng(fx.config.seed);
  core::StgnnDjdModel model(fx.flow->num_stations, fx.config, &rng);
  nn::Adam adam(model.parameters(), 2e-3f);
  const int last = fx.flow->val_end - 1;
  const int first = last - (TrainerOptions(0).train_window - 1);
  std::vector<double> fwd, bwd, step;
  common::BufferPool::Stats pool_before{};
  const int steps = 6;
  for (int s = 0; s < steps; ++s) {
    if (s == 1) pool_before = common::BufferPool::Global()->stats();
    common::Rng dropout(static_cast<uint64_t>(s) + 1);
    Timed t1("autograd.train_forward", kReplayTid, s);
    autograd::Variable loss;
    for (int t = first; t <= last; ++t) {
      autograd::Variable pred = model.Forward(fx.History(t), true, &dropout);
      autograd::Variable target = autograd::Variable::Constant(
          fx.normalizer->Normalize(data::TargetAt(*fx.flow, t)));
      autograd::Variable l = nn::MultiStepJointLoss(pred, target);
      loss = loss.defined() ? autograd::Add(loss, l) : l;
    }
    loss = autograd::MulScalar(loss, 1.0f / (last - first + 1));
    fwd.push_back(Ms(t1.Stop()));
    model.ZeroGrad();
    Timed t2("autograd.backward", kReplayTid, s);
    loss.Backward({.release_graph = true});
    bwd.push_back(Ms(t2.Stop()));
    Timed t3("nn.adam_step", kReplayTid, s);
    nn::ClipGradNorm(model.parameters(), fx.config.grad_clip_norm);
    adam.Step();
    step.push_back(Ms(t3.Stop()));
  }
  const common::BufferPool::Stats pool_after = common::BufferPool::Global()->stats();
  const std::string note = Note("p50 of %.0f replayed steps", steps);
  m->Add("autograd.train_forward_ms", Median(fwd), "ms", note);
  m->Add("autograd.backward_ms", Median(bwd), "ms", note);
  m->Add("nn.adam_step_ms", Median(step), "ms", note);
  m->Add("pool.fresh_allocs_per_step",
         Ratio(pool_after.misses - pool_before.misses + pool_after.bypasses -
                   pool_before.bypasses,
               steps - 1),
         "count", "steps 2..6, after the first step warmed the pool");
}

}  // namespace

// ---------------------------------------------------------------- main

namespace {

struct WorkloadResult {
  Metrics e2e;
  Metrics layers;
};

// The per-layer names every traced run prints; layers a workload does not
// reach print 0.
const std::pair<const char*, const char*> kLayerNames[] = {
    {"serve.queue_wait_ms", "ms"}, {"serve.execute_hit_ms", "ms"},
    {"serve.execute_miss_ms", "ms"}, {"serve.batch_size_mean", "requests"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.assemblies_per_slot_version", "ratio"}, {"serve.shed", "count"},
    {"serve.failed", "count"}, {"ring.push_ms", "ms"},
    {"ring.history_ms", "ms"}, {"ring.push_errors", "count"},
    {"core.embeddings_ms", "ms"}, {"core.fcg_build_ms", "ms"},
    {"core.fcg_agg_ms", "ms"}, {"core.pcg_attention_ms", "ms"},
    {"core.head_ms", "ms"}, {"core.fcg_density", "ratio"},
    {"core.stage_coverage", "ratio"}, {"online.poll_ms", "ms"},
    {"online.steps", "count"}, {"online.evaluations", "count"},
    {"online.swaps", "count"}, {"online.reject_ratio", "ratio"},
    {"online.holdout_rmse", "normalized"},
    {"autograd.train_forward_ms", "ms"}, {"autograd.backward_ms", "ms"},
    {"nn.adam_step_ms", "ms"}, {"pool.fresh_allocs_per_step", "count"},
    {"registry.publish_ms", "ms"}, {"shard.context_build_ms", "ms"},
    {"shard.fanouts_per_query", "ratio"}, {"shard.halo_rows_per_slot", "rows"},
    {"shard.retry_ratio", "ratio"}, {"shard.batch_size_mean", "requests"},
    {"tensor.matmul_gflop_per_query", "GFLOP"},
    {"tensor.matmul_bytes_per_query", "B"}, {"pool.caller_wait_ms", "ms"},
    {"pool.worker_idle_ratio", "ratio"}, {"bench.generator_lag_ms", "ms"},
    {"quality.forecast_rmse", "trips"}};

const char* kEndToEndNames[] = {
    "setup_s",         "peak_rss_mb",    "answer_p50_ms",
    "answer_tail_ms",  "answer_slo_ratio", "throughput_per_s",
    "fresh_p50_ms",    "fresh_tail_ms"};

const char* kTracedLayers[] = {"bench", "serve", "ring", "registry", "shard",
                               "core", "online", "autograd", "nn"};

CityPlan PlanFor(const std::string& workload, const WorkloadSpec& spec,
                 bool trace) {
  CityPlan plan;
  plan.n = spec.n;
  const int passes = trace ? 2 : 1;
  if (workload == "online_train") {
    plan.drift = true;
    plan.days = 4;
    plan.shock_day = 3;
    return plan;
  }
  // Window (24 slots) + warm margin + every slot the turnovers push, plus
  // the forecast slot after the last push.
  const int slots = 24 + 8 + passes * spec.turnovers + 2;
  plan.days = std::max(2, (slots + 23) / 24);
  return plan;
}

int FirstFrontier(const Fixture& fx) {
  return fx.config.long_term_days * fx.flow->slots_per_day + 6;
}

// Builds the fixture at least `min_reps` times, and again while less than
// 2.5 s went into this call (at most nine builds), freeing each before the
// next; appends each build's time to `times` and keeps the last. A run
// calls it twice, before and after the measurement, so setup_s, the median
// over both calls, samples the host at both ends of the run.
std::unique_ptr<Fixture> TimedSetup(const CityPlan& plan, uint64_t seed,
                                    int min_reps,
                                    const std::function<void(Fixture*)>& finish,
                                    std::vector<double>* times) {
  std::unique_ptr<Fixture> fx;
  double spent = 0.0;
  for (int reps = 0; reps < min_reps || (spent < 2.5 && reps < 9); ++reps) {
    fx.reset();
    const int64_t t0 = Now();
    fx = BuildFixture(plan, seed);
    finish(fx.get());
    times->push_back((Now() - t0) / 1e9);
    spent += times->back();
  }
  return fx;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec spec = SpecFor(args.workload, args.smoke);
  const CityPlan plan = PlanFor(args.workload, spec, args.trace);
  const int min_setup_reps = args.smoke ? 1 : 3;
  // A traced run splits --seconds between its untraced and traced passes.
  const double pass_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setup_times;

  // Run header: where and how the numbers were taken.
  std::printf(
      "{\"header\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"commit\": \"%s\", \"source_digest\": \"%s\", \"nproc\": %d, "
      "\"hardware_threads\": %d, \"kernel_pool_threads\": %d, \"isa\": \"%s\", "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"precision\": \"%s\", "
      "\"library_tracing_compiled_in\": %s, \"bench_tracing_enabled\": %s, "
      "\"n\": %d, \"days\": %d, \"open_rate_per_s\": %.1f, "
      "\"turnovers\": %d, \"republish_every\": %d, \"latency_limit_ms\": %.1f, "
      "\"smoke\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, JsonEscape(args.commit).c_str(),
      JsonEscape(args.source_digest).c_str(), Nproc(),
      common::HardwareThreads(), common::GetNumThreads(),
      common::IsaName(common::ActiveIsa()), PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
      tensor::PrecisionName(ServingConfig().infer_precision),
      common::trace::CompiledIn() ? "true" : "false", args.trace ? "true" : "false",
      plan.n, plan.days, spec.open_rate, spec.turnovers, spec.republish_every, spec.limit_ms,
      args.smoke ? "true" : "false");
  std::fflush(stdout);

  const auto steal_start = StealJiffies();
  WorkloadResult untraced;
  WorkloadResult traced;
  double peak_rss = 0.0;  // read before the set-up builds after the measurement
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t traced_answers = 0;

  if (args.workload == "online_train") {
    const auto finish = [](Fixture* f) {
      // Ring warm-up and first publish, as every episode repeats them.
      serve::FeatureRing ring(f->flow->num_stations, f->config.short_term_slots,
                              f->config.long_term_days, f->flow->slots_per_day,
                              f->scale);
      for (int t = 0; t < f->flow->val_end; ++t) {
        if (!ring.Push(t, f->flow->inflow[t], f->flow->outflow[t]).ok()) {
          Fail("online warm-up push");
        }
      }
      serve::ModelRegistry registry;
      registry.Publish(f->Snapshot());
    };
    auto fx = TimedSetup(plan, args.seed, min_setup_reps, finish, &setup_times);
    const int slots = args.smoke ? 4 : 6;
    for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
      const bool tracing = pass == 1;
      g_tracer.set_enabled(tracing);
      WorkloadResult& out = tracing ? traced : untraced;
      // Episodes repeat until --seconds pass (at least two): every episode
      // after the first must replay the first exactly.
      std::vector<Episode> episodes;
      const int64_t end = Now() + static_cast<int64_t>(pass_seconds * 1e9);
      while (episodes.size() < 2 || Now() < end) {
        episodes.push_back(RunEpisode(*fx, slots, args.seed, episodes.empty()));
        if (args.corrupt_one && episodes.size() == 2) {
          // Gate self-test: one round of the replay reports a different RMSE.
          episodes.back().polls.front().candidate.rmse += 1e-9;
        }
        const Episode& first = episodes.front();
        const Episode& last = episodes.back();
        if (last.polls.size() != first.polls.size() ||
            last.preroll.size() != first.preroll.size()) {
          Fail("episode length differs");
        }
        for (size_t i = 0; i < last.preroll.size(); ++i) {
          if (!SamePoll(first.preroll[i], last.preroll[i])) {
            Fail("pre-roll PollResult " + std::to_string(i) + " of episode " +
                 std::to_string(episodes.size()) + " differs from episode 1");
          }
        }
        for (size_t i = 0; i < last.polls.size(); ++i) {
          if (!SamePoll(first.polls[i], last.polls[i])) {
            Fail("PollResult " + std::to_string(i) + " of episode " +
                 std::to_string(episodes.size()) + " differs from episode 1");
          }
        }
        if (last.param_digest != first.param_digest) {
          Fail("final parameter digest of episode " +
               std::to_string(episodes.size()) + " differs from episode 1");
        }
      }
      // Every episode repeats the same rounds, so each round's time is the
      // median over the quietest third of the episodes (see Quietest) of that
      // round, and the statistics are taken over those per-round medians:
      // one slow round on a shared host moves one sample of one round, not
      // the figure.
      const Episode& first = episodes.front();
      const size_t rounds = first.polls.size();
      std::vector<double> steal;
      for (const Episode& ep : episodes) steal.push_back(ep.steal);
      const std::vector<bool> quiet = Quietest(steal);
      std::vector<double> poll_ms, trained_ms, round_ms(rounds), round_fresh(rounds);
      for (size_t i = 0; i < rounds; ++i) {
        std::vector<double> poll, fresh;
        for (size_t e = 0; e < episodes.size(); ++e) {
          const Episode& ep = episodes[e];
          if (ep.polls[i].steps > 0) trained_ms.push_back(ep.poll_ms[i]);
          if (!quiet[e]) continue;
          poll.push_back(ep.poll_ms[i]);
          fresh.push_back(ep.fresh_ms[i]);
          poll_ms.push_back(ep.poll_ms[i]);
        }
        round_ms[i] = Median(poll);
        round_fresh[i] = Median(fresh);
      }
      for (const Episode& ep : episodes) {
        failed += ep.push_errors;
        attempted += static_cast<int64_t>(ep.polls.size());
      }
      int64_t within = 0;
      for (double v : poll_ms) within += v <= spec.limit_ms;
      double round_s = 0.0;
      for (double v : round_ms) round_s += v / 1e3;
      const double k = static_cast<double>((episodes.size() + 2) / 3);
      const Tail tail = TailOf(round_ms);
      const Tail fresh_tail = TailOf(round_fresh);
      Metrics& m = out.e2e;
      m.Add("answer_p50_ms", Median(round_ms), "ms",
            Note("p50 of %.0f rounds, each the median over %.0f episodes",
                 rounds, k));
      m.Add("answer_tail_ms", tail.value, "ms",
            Note("p%.2f of %.0f per-round medians", tail.percentile, rounds));
      m.Add("answer_slo_ratio", Ratio(within, poll_ms.size()), "ratio",
            Note("within %.0f ms of %.0f rounds", spec.limit_ms, poll_ms.size()));
      m.Add("throughput_per_s", Ratio(first.steps, round_s), "1/s",
            Note("optimizer steps of one episode over its per-round median "
                 "Poll times (%.0f episodes)", k));
      m.Add("fresh_p50_ms", Median(round_fresh), "ms",
            Note("p50 of %.0f per-round medians", rounds));
      m.Add("fresh_tail_ms", fresh_tail.value, "ms",
            Note("p%.2f of %.0f per-round medians", fresh_tail.percentile, rounds));
      out.layers.Add("quality.forecast_rmse", Mean(first.forecast_rmse), "trips",
                     Note("live model, mean of %.0f streamed slots",
                          first.forecast_rmse.size()));
      std::printf("episodes: statistics over the quietest %.0f of %zu; steal per "
                  "episode %%:", k, episodes.size());
      for (double v : steal) std::printf(" %.1f", 100.0 * v);
      std::printf("\n");
      std::printf("online: %zu episodes of %zu rounds replayed identically; "
                  "final parameter digest %016llx\n",
                  episodes.size(), first.polls.size(),
                  static_cast<unsigned long long>(first.param_digest));
      if (tracing) {
        traced_answers = static_cast<int64_t>(poll_ms.size());
        Metrics& l = out.layers;
        const online::OnlineTrainerStats& s = first.stats;
        l.Add("online.poll_ms", Median(trained_ms), "ms",
              Note("p50 of %.0f Polls that trained", trained_ms.size()));
        l.Add("online.steps", s.steps, "count", "per episode");
        l.Add("online.evaluations", s.evaluations, "count", "per episode");
        l.Add("online.swaps", s.swaps, "count", "per episode");
        l.Add("online.reject_ratio", Ratio(s.rejected_candidates, s.evaluations),
              "ratio");
        l.Add("online.holdout_rmse", s.rolling_holdout_rmse, "normalized",
              "rolling holdout RMSE from OnlineTrainerStats");
        std::vector<double> push;
        for (const Span& sp : g_tracer.spans()) {
          if (std::strcmp(sp.name, "ring.push") == 0) push.push_back(Ms(sp.end_ns - sp.start_ns));
        }
        l.Add("ring.push_ms", Median(push), "ms", Note("p50 of %.0f", push.size()));
        l.Add("ring.push_errors", failed, "count");
        AddTrainStepLayers(&l, *fx);
      }
    }
    peak_rss = PeakRssMiB();
    fx.reset();
    TimedSetup(plan, args.seed, min_setup_reps - 1, finish, &setup_times);
  } else {
    const bool sharded = args.workload == "shard_fanout";
    std::unique_ptr<ServingStack> stack;
    const auto finish = [&](Fixture* f) {
      stack.reset();
      if (sharded) {
        stack = std::make_unique<FleetStack>(*f, FirstFrontier(*f));
      } else {
        stack = std::make_unique<LocalStack>(*f, FirstFrontier(*f));
      }
    };
    auto fx = TimedSetup(plan, args.seed, min_setup_reps, finish, &setup_times);
    Reference reference(fx.get());
    ServeContext ctx;
    ctx.args = &args;
    ctx.spec = spec;
    ctx.fx = fx.get();
    RecordVersion(&ctx, stack.get());

    for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
      const bool tracing = pass == 1;
      g_tracer.set_enabled(tracing);
      WorkloadResult& out = tracing ? traced : untraced;
      stack->BeginPass(tracing);
      PassResult result = ServePass(&ctx, stack.get(), pass_seconds);
      stack->EndPass();
      for (const auto& p : result.publishes) {
        ctx.models[p.first] = fx->model.get();
      }
      for (const IngestEvent& e : result.ingest) {
        if (!e.ok) Fail("ingest of slot " + std::to_string(e.slot) + " failed");
      }
      for (const QueryRecord& r : result.records) {
        ++attempted;
        if (!r.ok()) {
          ++failed;
          std::fprintf(stderr, "query %lld not OK: %s\n",
                       static_cast<long long>(r.index), r.error.c_str());
        }
      }
      // The fleet's checksum must equal an unsharded replay of the whole
      // stream; the local engine is checked on every fourth slot.
      const GateResult gate =
          CheckServed(result.records, Mix{fx->num_districts, fx->per_district},
                      ctx.models, &reference, sharded ? 1 : 4);
      if (gate.served_sum != gate.reference_sum) Fail("checksum mismatch");
      std::printf("gate: %lld responses bitwise equal to the direct path; "
                  "order-independent checksum %016llx (%s replay %016llx)\n",
                  static_cast<long long>(gate.checked),
                  static_cast<unsigned long long>(gate.served_sum),
                  sharded ? "unsharded" : "direct",
                  static_cast<unsigned long long>(gate.reference_sum));
      AddEndToEnd(&out.e2e, result, spec);
      if (tracing) {
        traced_answers = gate.checked;
        out.layers.Add("quality.forecast_rmse", gate.rmse, "trips",
                       "mean per-slot RMSE of served forecasts");
        AddServeLayers(&out.layers, result, sharded);
        std::vector<int> slots;
        for (const QueryRecord& r : result.records) {
          if (r.ok() && (slots.empty() || slots.back() != r.slot)) slots.push_back(r.slot);
        }
        std::sort(slots.begin(), slots.end());
        slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
        const Metric* miss = out.layers.Find("serve.execute_miss_ms");
        AddCoreLayers(&out.layers, *fx, slots, miss ? miss->value : 0.0);
      }
    }
    peak_rss = PeakRssMiB();
    stack.reset();
    fx.reset();
    TimedSetup(plan, args.seed, min_setup_reps - 1, finish, &setup_times);
  }
  std::printf("setup: %zu builds, seconds:", setup_times.size());
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf("\n");

  // End-to-end metrics shared by every workload.
  for (WorkloadResult* r : {&untraced, &traced}) {
    r->e2e.Add("setup_s", Median(setup_times), "s",
               Note("median of %.0f set-ups, before and after the measurement",
                    setup_times.size()));
    r->e2e.Add("peak_rss_mb", peak_rss, "MiB",
               "VmHWM of the process before the last set-up builds");
  }

  Metrics final_metrics;
  if (!args.trace) {
    for (const char* name : kEndToEndNames) {
      const Metric* m = untraced.e2e.Find(name);
      final_metrics.Add(name, m ? m->value : 0.0, m ? m->unit : "", m ? m->note : "");
    }
  } else {
    for (const auto& [name, unit] : kLayerNames) {
      const Metric* m = traced.layers.Find(name);
      final_metrics.Add(name, m ? m->value : 0.0, unit,
                        m ? m->note : "not reached by this workload");
    }
    // Tracing overhead: traced minus untraced end-to-end numbers (timings
    // only; set-up, memory and forecast quality are not traced).
    for (const char* name : kEndToEndNames) {
      const std::string n = name;
      if (n == "setup_s" || n == "peak_rss_mb") continue;
      const Metric* a = untraced.e2e.Find(name);
      const Metric* b = traced.e2e.Find(name);
      final_metrics.Add("trace.overhead." + n, (b ? b->value : 0.0) - (a ? a->value : 0.0),
                        b ? b->unit : "", "traced minus untraced pass");
    }
    const std::vector<Span> spans = g_tracer.spans();
    const std::map<std::string, double> self = SelfMsByLayer(spans);
    for (const char* layer : kTracedLayers) {
      auto it = self.find(layer);
      final_metrics.Add(std::string("trace.self_ms_per_answer.") + layer,
                        it == self.end() ? 0.0 : Ratio(it->second, traced_answers),
                        "ms", Note("self time over %.0f answers", traced_answers));
    }
    if (!args.trace_out.empty()) WriteChromeTrace(args.trace_out, spans);
  }

  const auto steal_end = StealJiffies();
  std::printf("host: %.2f%% of CPU time stolen by other guests during the run\n",
              100.0 * Ratio(steal_end.first - steal_start.first,
                            steal_end.second - steal_start.second));
  for (const Metric& m : final_metrics.list()) {
    std::printf("metric %-36s %14.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              static_cast<long long>(std::max<int64_t>(1, attempted)),
              static_cast<long long>(failed));
  bool first = true;
  for (const Metric& m : final_metrics.list()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
