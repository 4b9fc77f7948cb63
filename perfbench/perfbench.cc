// End-to-end benchmark of HybridGNN training and serving through the
// library's public API.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the same five stages; the workload sets their sizes:
//
//   1. data      MakeDataset + SplitEdges
//   2. train     HybridGnn::Fit + EvaluateLinkPrediction, then Gatne::Fit +
//                EvaluateLinkPrediction
//   3. freeze    SaveCheckpoint -> LoadCheckpoint(kMmap) -> int8
//                EmbeddingStore::Quantized -> TopKRecommender{ann=true};
//                LiveEmbeddingStore::Create over the fp32 store
//   4. capacity  closed loop of top-10 requests through RecommendService on
//                the int8+ANN recommender
//   5. live      open Poisson loop through RecommendService on the live
//                store (on serve-ann: on the int8+ANN recommender) while one
//                thread streams the split's held-out test edges through
//                IncrementalRefresher::IngestBatch into the live store
//
// Before stage 4, after it and after stage 5, one thread times a slice of
// 16-query RecommendBatch calls, an exact scan of the live store's first
// version, with nothing else running.
//
// The work of a run is fixed by the workload, the seed and --seconds: epoch
// counts, request counts, the arrival schedule and the delta batches never
// depend on how fast the machine is. Outputs are checked against the
// benchmark's own computations (AUC by Mann-Whitney, scores by double dot
// products, top-10 lists by brute force). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, and every call above is recorded as a span in
// perfbench-out/trace-<workload>-s<seed>.json.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/gatne.h"
#include "core/hybrid_gnn.h"
#include "data/profiles.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/embedding_store.h"
#include "serve/service.h"
#include "serve/topk.h"
#include "stream/live_store.h"
#include "stream/overlay.h"
#include "stream/refresher.h"

extern char** environ;

namespace hybridgnn::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
int64_t MicrosFromStart(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t -
                                                               kProcessStart)
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Check(StatusOr<T> v, const char* what) {
  if (!v.ok()) Die(std::string(what) + ": " + v.status().ToString());
  return std::move(v).value();
}
void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// Exact order statistic of a sample (linear interpolation between closest
// ranks), computed from the benchmark's own per-request clock.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The open loop's latency percentiles: the q-th percentile of each
// consecutive kLatencyWindowS-second window of the schedule, then the median
// of those. The reference VM loses its vCPUs for bursts of tens of
// milliseconds; a window long enough that one burst delays under 5% of its
// requests keeps a burst from moving its p95, and the median keeps a window
// with several bursts from moving the reported figure.
constexpr double kLatencyWindowS = 2.0;
double WindowedPercentile(const std::vector<double>& v, double q,
                          double loop_s) {
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(std::llround(loop_s / kLatencyWindowS)));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = v.size() * w / windows;
    const size_t hi = v.size() * (w + 1) / windows;
    if (hi > lo) {
      per_window.push_back(Percentile(
          std::vector<double>(v.begin() + lo, v.begin() + hi), q));
    }
  }
  return Percentile(per_window, 0.5);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  const char* profile;
  double scale;
  const char* user_type;  // query side of serving requests
  const char* item_type;  // candidate_type of serving requests
  size_t fit_threads;     // FitOptions / EvalOptions / export workers
  size_t hgnn_epochs;
  size_t gatne_epochs;
  // Identical GATNE fits per run; gatne_fit_s is the fastest of them.
  size_t gatne_fits;
  size_t max_pairs_per_epoch;  // both models
  double internal_val_fraction;  // both models
  // Closed-loop requests per second of --seconds, and timed single-thread
  // RecommendBatch calls per second of --seconds over the latency slices
  // (sized so the calls take 2.5-5 s on the reference machine).
  size_t closed_requests_per_s;
  size_t latency_calls_per_s;
  // Live stage: Poisson arrivals for live_share * --seconds seconds, sent to
  // the int8+ANN recommender when open_loop_ann and to the live store
  // otherwise, and ingest_batches batches of ingest_batch_edges edges into
  // the live store, one every ingest_period_ms, refreshed with ingest_khops
  // of dirty frontier.
  bool open_loop_ann;
  double live_rate;
  double live_share;
  size_t ingest_batches;
  size_t ingest_batch_edges;
  double ingest_period_ms;
  size_t ingest_khops;
};

// The dataset of every workload is generated from this fixed seed, as a
// benchmark serves one fixed corpus; --seed varies the split, both models'
// seeds, the query streams, the arrival schedule and the refresher. Drawn
// from --seed instead, the graph set the one-worker fit's cost: across
// seeds it took 8.8-13.8 s on train-1w, while each seed repeated within
// about 10%, so the spread across seeds measured the generator's draw.
constexpr uint64_t kDatasetSeed = 1;

constexpr Workload kWorkloads[] = {
    // name, profile, scale, user, item, threads, hgnn epochs, gatne epochs,
    // gatne fits, pairs/epoch, internal validation fraction,
    // closed requests/s, latency calls/s, open loop on ANN, live rate, live
    // share, ingest batches x edges, period, k_hops. serve-ann refreshes a
    // one-hop frontier (the refresher's default), so each of its batches
    // takes about 0.2 s; train-* refresh the edges' end points only, about
    // 11 ms a batch, because on their small graphs a one-hop frontier
    // reaches most nodes and its cost moved with the seed's split: 62-125 ms
    // across ten seeds, against 10-13 ms for the end points.
    {"train-1w", "taobao", 0.5, "user", "item", 1, 4, 2, 3, 20000, 0.10,
     4000, 500, false, 500.0, 0.6, 12, 32, 500.0, 0},
    {"train-4w", "kuaishou", 0.5, "user", "video", 4, 4, 2, 3, 20000, 0.10,
     4000, 500, false, 500.0, 0.6, 12, 32, 500.0, 0},
    {"serve-ann", "taobao", 2.5, "user", "item", 4, 2, 1, 1, 2000, 0.02,
     4000, 240, true, 500.0, 0.6, 12, 48, 500.0, 1},
};

// Serving configuration shared by every workload. Thread counts are always
// explicit and the load generator's threads plus the scoring threads stay
// within the four cores of the reference machine; measured on it, a third
// scoring worker in the closed loop raised throughput but doubled the
// round-to-round spread, because one late worker stalls each batch.
constexpr size_t kTopK = 10;
// The closed loop keeps two full micro-batches in flight, so the queue
// refills while a batch is scored and every batch leaves full.
constexpr size_t kClosedMaxBatch = 64;
constexpr size_t kClosedWindow = 2 * kClosedMaxBatch;  // requests in flight
constexpr size_t kClosedServiceThreads = 2;  // + 1 generator thread
constexpr size_t kClosedRounds = 9;
// One service thread scores on the dispatcher; with the generator, the
// collector and the ingest thread that makes four.
constexpr size_t kLiveServiceThreads = 1;
constexpr size_t kLiveMaxBatch = 16;
constexpr double kBatchWindowMs = 0.5;
constexpr size_t kAnnBuildThreads = 4;
// Latency stage: calls of kLatencyBatch queries, the live service's
// micro-batch size. serve_batch_ms is the kLatencyQuantile-th percentile of
// their wall times. The reference VM's cores run in two speeds that switch
// every second or so (the slow one about 30% slower, in CPU time as much as
// in wall time, so not a scheduling delay); a low percentile reads the fast
// speed unless nine tenths of the stage ran slow, where the median moved
// with the share of slow seconds. A change to the program moves both.
constexpr size_t kLatencyBatch = kLiveMaxBatch;
constexpr double kLatencyQuantile = 0.10;
constexpr size_t kLatencySlices = 3;
// refresh_ms is the fastest of a run's IngestBatch times, for the same
// reason: on train-1w the median of a run's twelve batches read 11-14 ms in
// most runs and 27 or 38 ms in runs where the host's slow stretches covered
// most of them, and their 25th percentile still spread by up to 0.25 across
// ten seeds.
constexpr double kRefreshQuantile = 0.0;
constexpr size_t kRecallSample = 300;
constexpr size_t kScoreSample = 200;
constexpr size_t kRowCheckSample = 512;
constexpr size_t kTopListSample = 64;
constexpr size_t kVersionRing = 4;
constexpr double kAucAgreePoints = 0.01;
constexpr double kAucFloor = 52.0;
constexpr double kRecallFloor = 0.90;

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written at the end of a traced run.

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = -1;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  int64_t NewId() { return next_id_.fetch_add(1); }
  void Add(std::string name, int64_t id, int64_t parent, int64_t request,
           Clock::time_point start, Clock::time_point end) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), id, parent, request,
                          MicrosFromStart(start), MicrosFromStart(end)});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::atomic<int64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span around one call; `id()` is the parent of nested spans.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent)
      : tracer_(tracer),
        name_(name),
        id_(tracer->on() ? tracer->NewId() : 0),
        parent_(parent),
        start_(Clock::now()) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }
  // Ends the span now and returns its length in seconds.
  double End() {
    if (!done_) {
      end_ = Clock::now();
      done_ = true;
      tracer_->Add(name_, id_, parent_, -1, start_, end_);
    }
    return std::chrono::duration<double>(end_ - start_).count();
  }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t id_;
  int64_t parent_;
  Clock::time_point start_;
  Clock::time_point end_;
  bool done_ = false;
};

// Registry delta between two snapshots, by metric name.
struct RegistryDelta {
  std::map<std::string, double> counters;
  std::map<std::string, double> stage_ms;

  static RegistryDelta Between(const obs::RegistrySnapshot& a,
                               const obs::RegistrySnapshot& b) {
    RegistryDelta d;
    for (const auto& [name, v] : b.counters) d.counters[name] = double(v);
    for (const auto& [name, v] : a.counters) d.counters[name] -= double(v);
    for (const auto& s : b.stages) d.stage_ms[s.name] = s.total_ms;
    for (const auto& s : a.stages) d.stage_ms[s.name] -= s.total_ms;
    return d;
  }
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  double StageMs(const std::string& name) const {
    auto it = stage_ms.find(name);
    return it == stage_ms.end() ? 0.0 : it->second;
  }
};

// ---------------------------------------------------------------------------
// Result bookkeeping

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layer;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    if (problems.size() < 20) problems.push_back(why);
    correct = false;
  }
  void E2e(const char* name, double v, const char* unit) {
    e2e.push_back({name, {v, unit}});
  }
  void Layer(const char* name, double v, const char* unit) {
    layer.push_back({name, {v, unit}});
  }
};

// ---------------------------------------------------------------------------
// Training stage

// Timestamps of FitOptions::progress_callback ticks.
struct FitTicks {
  std::vector<std::pair<std::string, Clock::time_point>> ticks;
  double first_epoch_loss = NAN;

  size_t Count(const std::string& phase) const {
    size_t n = 0;
    for (const auto& t : ticks) n += t.first == phase;
    return n;
  }
  std::optional<Clock::time_point> First(const std::string& phase) const {
    for (const auto& t : ticks) {
      if (t.first == phase) return t.second;
    }
    return std::nullopt;
  }
  // Median interval between consecutive epoch ticks; the first epoch is
  // timed from the tick before it.
  double MedianEpochSeconds(Clock::time_point fit_start) const {
    std::vector<double> v;
    Clock::time_point prev = fit_start;
    for (const auto& t : ticks) {
      if (t.first == "epoch") v.push_back(Ms(prev, t.second) / 1e3);
      prev = t.second;
    }
    return Percentile(v, 0.5);
  }
  double CacheSeconds() const {
    std::optional<Clock::time_point> last_epoch;
    for (const auto& t : ticks) {
      if (t.first == "epoch") last_epoch = t.second;
      if (t.first == "cache" && last_epoch) return Ms(*last_epoch, t.second) / 1e3;
    }
    return 0.0;
  }
  // Spans for each tick interval, under `parent`.
  void Trace(Tracer* tracer, const char* model, int64_t parent,
             Clock::time_point fit_start) const {
    Clock::time_point prev = fit_start;
    for (const auto& t : ticks) {
      tracer->Add(std::string(model) + "." + t.first, tracer->NewId(), parent,
                  -1, prev, t.second);
      prev = t.second;
    }
  }
};

FitOptions MakeFitOptions(size_t threads, FitTicks* ticks) {
  FitOptions fo;
  fo.num_threads = threads;
  fo.deterministic = false;
  fo.compile_plan = false;
  fo.progress_callback = [ticks](const FitProgress& p) {
    ticks->ticks.emplace_back(p.phase, Clock::now());
    // HybridGNN sets this gauge before its epoch tick; GATNE's value of it
    // is recorded too but never read.
    if (p.phase == "epoch" && p.step == 1) {
      ticks->first_epoch_loss =
          obs::GlobalRegistry().GetGauge("core/last_epoch_loss").value();
    }
  };
  return fo;
}

CorpusOptions MakeCorpus(size_t threads) {
  CorpusOptions c;
  c.num_walks_per_node = 6;
  c.walk_length = 8;
  c.window = 3;
  c.num_threads = threads;
  return c;
}

// Double-precision dot product: the benchmark's own scoring arithmetic.
double Dot(const float* a, const float* b, size_t dim) {
  double s = 0.0;
  for (size_t j = 0; j < dim; ++j) s += double(a[j]) * double(b[j]);
  return s;
}
double Norm(const float* a, size_t dim) { return std::sqrt(Dot(a, a, dim)); }

// ROC-AUC in percent by the Mann-Whitney statistic over the benchmark's own
// dot products of Embedding(u, r) and Embedding(v, r); ties count one half.
double OwnAucPercent(const EmbeddingModel& model, const LinkSplit& split) {
  auto score = [&](const EdgeTriple& e) {
    const Tensor a = model.Embedding(e.src, e.rel);
    const Tensor b = model.Embedding(e.dst, e.rel);
    return Dot(a.data(), b.data(), a.cols());
  };
  std::vector<double> pos, neg;
  for (const auto& e : split.test_pos) pos.push_back(score(e));
  for (const auto& e : split.test_neg) neg.push_back(score(e));
  std::sort(neg.begin(), neg.end());
  double u = 0.0;
  for (double p : pos) {
    const auto lo = std::lower_bound(neg.begin(), neg.end(), p);
    const auto hi = std::upper_bound(lo, neg.end(), p);
    u += static_cast<double>(lo - neg.begin()) + 0.5 * static_cast<double>(hi - lo);
  }
  return 100.0 * u / (static_cast<double>(pos.size()) * static_cast<double>(neg.size()));
}

struct FitOutcome {
  double fit_s = 0.0;
  double cpu_s = 0.0;
  double auc = 0.0;
  FitTicks ticks;
  Clock::time_point start;
};

// Fits `model` with `threads` workers, timed from outside the call, with
// its progress ticks recorded (as spans under `span_name` when tracing). A
// failed fit ends the run.
FitOutcome TimedFit(EmbeddingModel& model, const MultiplexHeteroGraph& g,
                    size_t threads, Tracer* tracer, int64_t parent,
                    const char* span_name, const char* tick_prefix) {
  FitOutcome fit;
  ScopedSpan span(tracer, span_name, parent);
  const FitOptions fo = MakeFitOptions(threads, &fit.ticks);
  fit.start = Clock::now();
  const double cpu0 = CpuSeconds();
  const Status st = model.Fit(g, fo);
  fit.fit_s = span.End();
  fit.cpu_s = CpuSeconds() - cpu0;
  if (!st.ok()) Die(model.name() + " Fit: " + st.ToString());
  fit.ticks.Trace(tracer, tick_prefix, span.id(), fit.start);
  return fit;
}

void CheckTraining(const char* model, const FitOutcome& fit, double lib_auc,
                   size_t epochs, Result* res) {
  const size_t got = fit.ticks.Count("epoch");
  if (got != epochs) {
    res->Fail(std::string(model) + ": " + std::to_string(got) +
              " epoch ticks, configured " + std::to_string(epochs));
  }
  if (std::fabs(fit.auc - lib_auc) > kAucAgreePoints) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: own AUC %.6f disagrees with EvaluateLinkPrediction %.6f",
                  model, fit.auc, lib_auc);
    res->Fail(buf);
  }
  if (!(fit.auc > kAucFloor)) {
    res->Fail(std::string(model) + ": test AUC " + std::to_string(fit.auc) +
              " not above the floor " + std::to_string(kAucFloor));
  }
}

// ---------------------------------------------------------------------------
// Serving helpers

struct Served {
  TopKQuery query;
  bool ok = false;  // the response's status was OK
  std::vector<Recommendation> items;
};

// The benchmark's own fp32 brute force: top-k of `q` over `store` (kF32),
// excluding the query node, its training neighbours and `extra` (sorted),
// candidates restricted to `item_type`. Descending score, ascending id.
std::vector<std::pair<double, NodeId>> BruteForce(
    const EmbeddingStore& store, const MultiplexHeteroGraph& graph,
    const TopKQuery& q, std::span<const NodeId> extra) {
  const float* u = store.Lookup(q.node, q.rel);
  std::vector<std::pair<double, NodeId>> all;
  if (u == nullptr) return all;
  const auto nbrs = graph.Neighbors(q.node, q.rel);
  for (NodeId v : graph.NodesOfType(q.candidate_type)) {
    if (v == q.node) continue;
    if (std::binary_search(nbrs.begin(), nbrs.end(), v)) continue;
    if (std::binary_search(extra.begin(), extra.end(), v)) continue;
    const float* row = store.Lookup(v, q.rel);
    if (row == nullptr) continue;
    all.push_back({Dot(u, row, store.dim()), v});
  }
  const size_t k = std::min(q.k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  all.resize(k);
  return all;
}

// Score tolerance: relative to the product of the two row norms, which
// bounds the rounding of any summation order and of the int8 kernels'
// affine arithmetic.
constexpr double kScoreRelTol = 1e-4;
bool ScoreMatches(double reported, double own, double norm_product) {
  return std::fabs(reported - own) <= kScoreRelTol * norm_product + 1e-6;
}

// True when every item's score matches the benchmark's own dot product of
// the query's and the item's rows in `store`, read through DequantizeRow so
// an int8 store is checked against the values its kernels score.
bool ScoresMatch(const EmbeddingStore& store, const TopKQuery& q,
                 const std::vector<Recommendation>& items) {
  const size_t dim = store.dim();
  std::vector<float> u(dim), row(dim);
  auto load = [&](NodeId v, float* out) {
    const uint32_t r = store.RowOf(v, q.rel);
    if (r == EmbeddingStore::kNoRow) return false;
    store.DequantizeRow(q.rel, r, out);
    return true;
  };
  if (!load(q.node, u.data())) return false;
  const double un = Norm(u.data(), dim);
  for (const Recommendation& rec : items) {
    if (!load(rec.node, row.data()) ||
        !ScoreMatches(rec.score, Dot(u.data(), row.data(), dim),
                      un * Norm(row.data(), dim))) {
      return false;
    }
  }
  return true;
}

// Structural checks every answer must pass: k items of the requested type,
// none the query node or a training neighbour, scores not increasing.
std::string CheckAnswerShape(const MultiplexHeteroGraph& graph,
                             const TopKQuery& q,
                             const std::vector<Recommendation>& items) {
  if (items.size() != q.k) {
    return "answer holds " + std::to_string(items.size()) + " items, not " +
           std::to_string(q.k);
  }
  const auto nbrs = graph.Neighbors(q.node, q.rel);
  for (size_t i = 0; i < items.size(); ++i) {
    const NodeId v = items[i].node;
    if (v >= graph.num_nodes() || graph.node_type(v) != q.candidate_type) {
      return "item " + std::to_string(v) + " has the wrong type";
    }
    if (v == q.node || std::binary_search(nbrs.begin(), nbrs.end(), v)) {
      return "item " + std::to_string(v) + " is a training neighbour of " +
             std::to_string(q.node);
    }
    if (i > 0 && items[i].score > items[i - 1].score) {
      return "scores increase down the list";
    }
  }
  return "";
}

// Queries drawn from the training interactions: each takes the user end and
// the relation of a uniformly chosen user-item training edge, so users come
// in proportion to their degree and relations in proportion to their edge
// counts, both as in the dataset.
class QueryGen {
 public:
  QueryGen(const MultiplexHeteroGraph& g, NodeTypeId user_type,
           NodeTypeId item_type, uint64_t seed)
      : item_type_(item_type), rng_(seed) {
    for (const EdgeTriple& e : g.edges()) {
      const NodeTypeId s = g.node_type(e.src), d = g.node_type(e.dst);
      if (s == user_type && d == item_type) keys_.push_back({e.src, e.rel});
      if (d == user_type && s == item_type) keys_.push_back({e.dst, e.rel});
    }
    if (keys_.empty()) Die("no user-item training edges to draw queries from");
  }
  TopKQuery Next() {
    const auto& [node, rel] = keys_[rng_.UniformUint64(keys_.size())];
    TopKQuery q;
    q.node = node;
    q.rel = rel;
    q.k = kTopK;
    q.candidate_type = item_type_;
    q.exclude_train_neighbors = true;
    return q;
  }

 private:
  std::vector<std::pair<NodeId, RelationId>> keys_;
  NodeTypeId item_type_;
  Rng rng_;
};

ServiceOptions MakeServiceOptions(size_t threads, size_t max_batch) {
  ServiceOptions so;
  so.num_threads = threads;
  so.max_batch_size = max_batch;
  so.batch_window_ms = kBatchWindowMs;
  so.max_queue_depth = 0;
  so.default_deadline_ms = 0.0;
  so.result_cache_capacity = 0;
  return so;
}

// ---------------------------------------------------------------------------
// JSON output

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string ResultLine(const Result& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? r.layer : r.e2e;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    AppendJsonString(out, metrics[i].first);
    out += ": {\"value\": " + Num(metrics[i].second.first) + ", \"unit\": ";
    AppendJsonString(out, metrics[i].second.second);
    out += "}";
  }
  out += "}}";
  return out;
}

void WriteTrace(const std::string& path, const Workload& w, uint64_t seed,
                const Tracer& tracer, const RegistryDelta& delta,
                const Result& res) {
  std::string out = "{\"workload\": ";
  AppendJsonString(out, w.name);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"kernel_backend\": ";
  AppendJsonString(out, kernels::BackendName(kernels::ActiveBackend()));
  out += ", \"spans\": [";
  bool first = true;
  for (const Span& s : tracer.spans()) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\": ";
    AppendJsonString(out, s.name);
    out += ", \"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent);
    if (s.request >= 0) out += ", \"request\": " + std::to_string(s.request);
    out += ", \"start_us\": " + std::to_string(s.start_us) +
           ", \"end_us\": " + std::to_string(s.end_us) + "}";
  }
  out += "\n], \"registry_delta\": {\"counters\": {";
  first = true;
  for (const auto& [name, v] : delta.counters) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + Num(v);
  }
  out += "}, \"stage_total_ms\": {";
  first = true;
  for (const auto& [name, v] : delta.stage_ms) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + Num(v);
  }
  out += "}}, \"result\": " + ResultLine(res, true) + "}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// The run

int Run(const Workload& w, uint64_t seed, double seconds, bool trace) {
  Tracer tracer(trace);
  Result res;
  const obs::RegistrySnapshot reg_start = obs::GlobalRegistry().Snapshot();
  ScopedSpan run_span(&tracer, "run", 0);
  const int64_t root = run_span.id();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "kernel_backend=%s\n",
              w.name, static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, kernels::BackendName(kernels::ActiveBackend()));
  std::fflush(stdout);

  // ---- 1. data
  ScopedSpan data_span(&tracer, "data.generate", root);
  Dataset ds =
      Check(MakeDataset(w.profile, w.scale, kDatasetSeed), "MakeDataset");
  Rng split_rng(seed ^ 0x5B117ULL);
  LinkSplit split =
      Check(SplitEdges(ds.graph, SplitOptions{}, split_rng), "SplitEdges");
  const double generate_s = data_span.End();
  const MultiplexHeteroGraph& train_graph = split.train_graph;
  const NodeTypeId user_type = train_graph.FindNodeType(w.user_type);
  const NodeTypeId item_type = train_graph.FindNodeType(w.item_type);
  if (user_type == kInvalidNodeType || item_type == kInvalidNodeType) {
    Die("profile lacks the serving node types");
  }

  // ---- 2. train
  EvalOptions eo;
  eo.k = kTopK;
  eo.max_ranking_queries = 100;
  eo.num_threads = w.fit_threads;

  const obs::RegistrySnapshot reg_hgnn0 = obs::GlobalRegistry().Snapshot();
  HybridGnnConfig hc;
  hc.epochs = w.hgnn_epochs;
  hc.early_stopping_patience = w.hgnn_epochs + 1;  // never stops early
  hc.max_pairs_per_epoch = w.max_pairs_per_epoch;
  hc.internal_val_fraction = w.internal_val_fraction;
  hc.corpus = MakeCorpus(w.fit_threads);
  hc.seed = seed;
  HybridGnn hgnn(hc, ds.schemes);
  ++res.attempted;
  FitOutcome hfit = TimedFit(hgnn, train_graph, w.fit_threads, &tracer,
                             root, "hgnn.fit", "hgnn");
  const obs::RegistrySnapshot reg_hgnn1 = obs::GlobalRegistry().Snapshot();
  {
    ScopedSpan span(&tracer, "hgnn.eval", root);
    Rng eval_rng(seed ^ 0xE7A1ULL);
    const LinkPredictionResult lp =
        EvaluateLinkPrediction(hgnn, ds.graph, split, eo, eval_rng);
    hfit.auc = OwnAucPercent(hgnn, split);
    CheckTraining("HybridGNN", hfit, lp.roc_auc, w.hgnn_epochs, &res);
    const double last = hgnn.last_epoch_loss();
    if (!std::isfinite(last) || !(last < hfit.ticks.first_epoch_loss)) {
      res.Fail("HybridGNN: last epoch loss " + std::to_string(last) +
               " is not finite and below the first epoch's " +
               std::to_string(hfit.ticks.first_epoch_loss));
    }
  }

  Gatne::Options go;
  go.epochs = w.gatne_epochs;
  go.early_stopping_patience = w.gatne_epochs + 1;
  go.max_pairs_per_epoch = w.max_pairs_per_epoch;
  go.internal_val_fraction = w.internal_val_fraction;
  go.corpus = MakeCorpus(w.fit_threads);
  go.seed = seed ^ 0x6A7E;
  // A fit of a few seconds lands in the cores' slow speed (see
  // kLatencyQuantile) more often than not, so the short GATNE fits are
  // repeated from a fresh model and the fastest one is reported; the last
  // fit is the one evaluated and traced per layer.
  std::optional<Gatne> gatne;
  FitOutcome gfit;
  std::vector<double> gatne_fit_times;
  for (size_t i = 0; i < w.gatne_fits; ++i) {
    gatne.emplace(go, ds.schemes);
    ++res.attempted;
    gfit = TimedFit(*gatne, train_graph, w.fit_threads, &tracer, root,
                    "gatne.fit", "gatne");
    gatne_fit_times.push_back(gfit.fit_s);
  }
  {
    ScopedSpan span(&tracer, "gatne.eval", root);
    Rng eval_rng(seed ^ 0xE7A2ULL);
    const LinkPredictionResult lp =
        EvaluateLinkPrediction(*gatne, ds.graph, split, eo, eval_rng);
    gfit.auc = OwnAucPercent(*gatne, split);
    CheckTraining("GATNE", gfit, lp.roc_auc, w.gatne_epochs, &res);
  }
  const obs::RegistrySnapshot reg_train1 = obs::GlobalRegistry().Snapshot();

  // ---- 3. freeze: checkpoint, load, quantize, index
  std::filesystem::create_directories("perfbench-out");
  const std::string ckpt = "perfbench-out/model-" + std::string(w.name) +
                           "-" + std::to_string(getpid()) + ".hgc";
  double export_s = 0.0, load_s = 0.0, quantize_s = 0.0, ann_build_s = 0.0;
  {
    ScopedSpan span(&tracer, "serve.export", root);
    Check(SaveCheckpoint(hgnn, train_graph, ckpt, w.fit_threads),
          "SaveCheckpoint");
    export_s = span.End();
  }
  std::optional<EmbeddingStore> fp32;
  {
    ScopedSpan span(&tracer, "serve.load_checkpoint", root);
    fp32.emplace(Check(LoadCheckpoint(ckpt, LoadMode::kMmap), "LoadCheckpoint"));
    load_s = span.End();
  }
  std::filesystem::remove(ckpt);  // the mapping keeps the inode alive
  {
    Rng rng(seed ^ 0xC4EC);
    for (size_t i = 0; i < kRowCheckSample; ++i) {
      const NodeId v = static_cast<NodeId>(rng.UniformUint64(train_graph.num_nodes()));
      const RelationId r =
          static_cast<RelationId>(rng.UniformUint64(train_graph.num_relations()));
      const float* row = fp32->Lookup(v, r);
      const Tensor e = hgnn.Embedding(v, r);
      if (row == nullptr || e.cols() != fp32->dim() ||
          std::memcmp(row, e.data(), fp32->dim() * sizeof(float)) != 0) {
        res.Fail("checkpoint row (" + std::to_string(v) + ", " +
                 std::to_string(r) + ") differs from Embedding()");
        break;
      }
    }
  }
  std::optional<EmbeddingStore> int8;
  {
    ScopedSpan span(&tracer, "serve.quantize", root);
    int8.emplace(Check(EmbeddingStore::Quantized(*fp32, StoreDType::kI8),
                       "Quantized"));
    quantize_s = span.End();
  }
  TopKOptions ann_opts;
  ann_opts.num_threads = 1;
  ann_opts.cosine = false;
  ann_opts.ann = true;
  ann_opts.ef_search = 64;
  ann_opts.over_fetch = 4;
  ann_opts.ann_min_rows = 1024;
  ann_opts.ann_build.M = 16;
  ann_opts.ann_build.ef_construction = 100;
  ann_opts.ann_build.build_threads = kAnnBuildThreads;
  std::optional<TopKRecommender> ann_rec;
  {
    ScopedSpan span(&tracer, "serve.ann_build", root);
    ann_rec.emplace(&*int8, &train_graph, ann_opts);
    ann_build_s = span.End();
  }
  if (!ann_rec->ann_enabled()) res.Fail("ANN did not resolve on");
  TopKOptions exact_opts;
  exact_opts.num_threads = 1;
  exact_opts.cosine = false;
  exact_opts.ann = false;
  std::unique_ptr<LiveEmbeddingStore> live;
  {
    ScopedSpan span(&tracer, "stream.live_create", root);
    live = Check(LiveEmbeddingStore::Create(*fp32, &train_graph, exact_opts),
                 "LiveEmbeddingStore::Create");
  }
  const double setup_s = SecondsSince(kProcessStart);

  // ---- latency: one thread, no service, no other work, in kLatencySlices
  // equal slices: before the closed loop, after it and after the open loop.
  // The open loop times requests through the service too, but its figures
  // carry every wake-up of a sleeping thread, which the host delays by
  // milliseconds when it is busy; a synchronous call carries none. The
  // slices spread the calls over most of the serving stages, so one slow
  // stretch of the host does not cover them all. The calls scan the live
  // store's first fp32 version exactly. The int8+ANN path is left to the
  // per-layer figures: with the same queries in one process, the 10th
  // percentile of its calls moved by a third from pass to pass, and that of
  // an exact int8 scan by half, against under a third for the fp32 scan.
  const size_t latency_calls = std::max<size_t>(
      kLatencySlices, static_cast<size_t>(std::llround(
                          double(w.latency_calls_per_s) * seconds)));
  std::vector<double> call_ms(latency_calls, 0.0);
  size_t latency_failed = 0;
  const auto first_version = live->Acquire();
  const TopKRecommender& latency_rec = *first_version->recommender;
  const EmbeddingStore& latency_store = first_version->store;
  std::vector<TopKQuery> latency_queries(latency_calls * kLatencyBatch);
  {
    QueryGen gen(train_graph, user_type, item_type, seed ^ 0x1A7E);
    for (auto& q : latency_queries) q = gen.Next();
  }
  auto latency_slice = [&](size_t slice) {
    ScopedSpan span(&tracer, "serve.latency", root);
    for (size_t c = latency_calls * slice / kLatencySlices;
         c < latency_calls * (slice + 1) / kLatencySlices; ++c) {
      const std::span<const TopKQuery> qs(
          latency_queries.data() + c * kLatencyBatch, kLatencyBatch);
      const auto s = Clock::now();
      auto out = latency_rec.RecommendBatch(qs);
      const auto f = Clock::now();
      call_ms[c] = Ms(s, f);
      tracer.Add("serve.recommend_batch", tracer.NewId(), span.id(),
                 int64_t(c), s, f);
      for (size_t i = 0; i < out.size(); ++i) {
        if (!out[i].ok()) {
          ++latency_failed;
          continue;
        }
        const std::string bad = CheckAnswerShape(train_graph, qs[i], *out[i]);
        if (!bad.empty()) {
          res.Fail("latency: " + bad);
        } else if (!ScoresMatch(latency_store, qs[i], *out[i])) {
          res.Fail("latency: call " + std::to_string(c) +
                   " scores differ from the own dot products");
        }
      }
    }
  };
  latency_slice(0);

  // ---- 4. capacity: closed loop over int8 + ANN
  const obs::RegistrySnapshot reg_serve0 = obs::GlobalRegistry().Snapshot();
  const size_t closed_n =
      std::max<size_t>(1, static_cast<size_t>(std::llround(
                              double(w.closed_requests_per_s) * seconds)));
  std::vector<Served> closed(closed_n);
  // The loop runs in kClosedRounds equal rounds, each drained before the
  // next starts; serve.qps is the median round's throughput, so a burst of
  // outside load during one round does not move it.
  std::vector<double> round_qps;
  size_t closed_failed = 0;
  {
    QueryGen gen(train_graph, user_type, item_type, seed ^ 0xC105ED);
    for (auto& s : closed) s.query = gen.Next();
    RecommendService svc(&*ann_rec, MakeServiceOptions(kClosedServiceThreads,
                                                       kClosedMaxBatch));
    ScopedSpan span(&tracer, "serve.closed_loop", root);
    struct InFlight {
      size_t i;
      Clock::time_point sent;
      std::future<RecommendResponse> fut;
    };
    std::deque<InFlight> window;
    for (size_t round = 0; round < kClosedRounds; ++round) {
      size_t next = closed_n * round / kClosedRounds;
      const size_t end = closed_n * (round + 1) / kClosedRounds;
      const auto t0 = Clock::now();
      while (next < end || !window.empty()) {
        while (next < end && window.size() < kClosedWindow) {
          const auto sent = Clock::now();
          window.push_back({next, sent, svc.Submit(closed[next].query)});
          ++next;
        }
        InFlight f = std::move(window.front());
        window.pop_front();
        RecommendResponse r = f.fut.get();
        const auto done = Clock::now();
        tracer.Add("serve.request", tracer.NewId(), span.id(), int64_t(f.i),
                   f.sent, done);
        if (!r.status.ok()) {
          ++closed_failed;
          continue;
        }
        closed[f.i].ok = true;
        closed[f.i].items = std::move(r.items);
      }
      const double wall_s = Ms(t0, Clock::now()) / 1e3;
      round_qps.push_back(double(end - closed_n * round / kClosedRounds) /
                          wall_s);
    }
  }
  res.attempted += closed_n;
  res.failed += closed_failed;
  const obs::RegistrySnapshot reg_serve1 = obs::GlobalRegistry().Snapshot();
  std::printf("perfbench: closed-loop rounds (req/s):");
  for (double q : round_qps) std::printf(" %.0f", q);
  std::printf("\n");
  // Every answer: shape, and scores against the dequantized rows.
  double recall_sum = 0.0;
  size_t recall_n = 0;
  {
    for (size_t i = 0; i < closed.size(); ++i) {
      const Served& s = closed[i];
      if (!s.ok) continue;  // failed request, counted above
      const std::string bad = CheckAnswerShape(train_graph, s.query, s.items);
      if (!bad.empty()) {
        res.Fail("closed loop: " + bad);
        continue;
      }
      if (!ScoresMatch(*int8, s.query, s.items)) {
        res.Fail("closed loop: answer " + std::to_string(i) +
                 " scores differ from the own dequantized dot products");
      }
      if (i < kRecallSample) {
        const auto exact = BruteForce(*fp32, train_graph, s.query, {});
        size_t hit = 0;
        for (const auto& e : exact) {
          for (const Recommendation& rec : s.items) hit += rec.node == e.second;
        }
        recall_sum += double(hit) / double(std::max<size_t>(1, exact.size()));
        ++recall_n;
      }
    }
  }
  const double recall = recall_n ? recall_sum / double(recall_n) : 0.0;
  if (!(recall > kRecallFloor)) {
    res.Fail("recall@10 " + std::to_string(recall) + " not above " +
             std::to_string(kRecallFloor));
  }

  latency_slice(1);

  // ---- 5. live: open loop over the live store (or the int8+ANN
  // recommender), with streaming ingest into the live store
  DynamicGraphOverlay overlay(&train_graph);
  RefreshOptions ro;
  ro.k_hops = w.ingest_khops;
  ro.walks_per_dirty_node = 4;
  ro.walk_length = 6;
  ro.window = 2;
  ro.direct_edge_copies = 4;
  ro.num_negatives = 0;
  ro.sgd_rounds = 2;
  ro.minibatch = 256;
  ro.learning_rate = 0.05f;
  ro.smoothing_alpha = 0.0f;
  ro.seed = seed ^ 0x1E5;
  IncrementalRefresher refresher(&overlay, live.get(), ro);
  const size_t batch_edges = w.ingest_batch_edges;
  const size_t num_batches =
      std::min(w.ingest_batches, split.test_pos.size() / batch_edges);
  if (num_batches == 0) Die("too few test edges to stream");
  // The streamed edges, per (src, rel): the benchmark's own exclusion set.
  std::map<std::pair<NodeId, RelationId>, std::vector<NodeId>> streamed;
  for (size_t e = 0; e < num_batches * batch_edges; ++e) {
    const EdgeTriple& t = split.test_pos[e];
    streamed[{t.src, t.rel}].push_back(t.dst);
    streamed[{t.dst, t.rel}].push_back(t.src);
  }
  for (auto& [key, v] : streamed) std::sort(v.begin(), v.end());

  // The last few published versions, so an answer can be checked against
  // the version that served it. Only this ring holds them; an evicted
  // version is freed by the ingest thread outside the lock, so the collector
  // never stalls on freeing a snapshot while it timestamps completions.
  std::mutex versions_mu;
  std::map<uint64_t, std::shared_ptr<const LiveEmbeddingStore::Version>> versions;
  auto remember = [&](std::shared_ptr<const LiveEmbeddingStore::Version> v) {
    std::shared_ptr<const LiveEmbeddingStore::Version> evicted;
    std::lock_guard<std::mutex> lock(versions_mu);
    versions[v->sequence] = std::move(v);
    if (versions.size() > kVersionRing) {
      evicted = std::move(versions.begin()->second);
      versions.erase(versions.begin());
    }
    // `evicted` is declared before the guard, so it is released after it.
  };
  remember(live->Acquire());

  const size_t live_n = std::max<size_t>(
      1, static_cast<size_t>(std::llround(w.live_rate * w.live_share * seconds)));
  std::vector<Clock::duration> schedule(live_n);
  {
    Rng arrivals(seed ^ 0xA441);
    double t = 0.0;
    for (auto& s : schedule) {
      t += -std::log(1.0 - arrivals.UniformDouble()) / w.live_rate;
      s = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(t));
    }
  }
  std::vector<TopKQuery> live_queries(live_n);
  {
    QueryGen gen(train_graph, user_type, item_type, seed ^ 0x11FE);
    for (auto& q : live_queries) q = gen.Next();
  }
  std::vector<double> live_latency_ms(live_n, 0.0);
  std::vector<double> generator_lag_ms(live_n, 0.0);
  std::vector<double> refresh_ms;
  size_t dirty_nodes = 0, pairs_trained = 0;
  std::atomic<uint64_t> ingest_failed{0};
  std::atomic<uint64_t> live_failed{0};
  std::mutex problems_mu;
  auto live_problem = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(problems_mu);
    res.Fail("live: " + why);
  };
  {
    const ServiceOptions so =
        MakeServiceOptions(kLiveServiceThreads, kLiveMaxBatch);
    auto svc = w.open_loop_ann
                   ? std::make_unique<RecommendService>(&*ann_rec, so)
                   : std::make_unique<RecommendService>(
                         static_cast<const RecommenderSource*>(live.get()), so);
    ScopedSpan loop_span(&tracer, "serve.open_loop", root);
    const int64_t loop_id = loop_span.id();
    struct Sent {
      size_t i;
      Clock::time_point sent;
      uint64_t version_before;
      std::future<RecommendResponse> fut;
    };
    std::mutex q_mu;
    std::condition_variable q_cv;
    std::deque<Sent> sent_q;
    bool gen_done = false;
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);

    std::thread ingest([&] {
      for (size_t b = 0; b < num_batches; ++b) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         w.ingest_period_ms * double(b))));
        std::vector<GraphDelta> batch;
        for (size_t e = b * batch_edges; e < (b + 1) * batch_edges; ++e) {
          const EdgeTriple& t = split.test_pos[e];
          batch.push_back(GraphDelta::AddEdge(t.src, t.dst, t.rel, e));
        }
        const auto s = Clock::now();
        auto stats = refresher.IngestBatch(batch);
        const auto f = Clock::now();
        tracer.Add("stream.ingest_batch", tracer.NewId(), loop_id,
                   int64_t(b), s, f);
        refresh_ms.push_back(Ms(s, f));
        if (!stats.ok()) {
          ingest_failed.fetch_add(1);
          continue;
        }
        dirty_nodes += stats->dirty_nodes;
        pairs_trained += stats->pairs_trained;
        remember(live->Acquire());
      }
    });
    std::thread generator([&] {
      for (size_t i = 0; i < live_n; ++i) {
        const auto due = t0 + schedule[i];
        std::this_thread::sleep_until(due);
        const auto now = Clock::now();
        generator_lag_ms[i] = Ms(due, now);
        const uint64_t before = live->version();
        Sent s{i, now, before, svc->Submit(live_queries[i])};
        {
          std::lock_guard<std::mutex> lock(q_mu);
          sent_q.push_back(std::move(s));
        }
        q_cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(q_mu);
      gen_done = true;
      q_cv.notify_one();
    });
    // Collector (this thread): completion times and per-answer checks.
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(q_mu);
        q_cv.wait(lock, [&] { return !sent_q.empty() || gen_done; });
        if (sent_q.empty()) break;
        s = std::move(sent_q.front());
        sent_q.pop_front();
      }
      RecommendResponse r = s.fut.get();
      const auto done = Clock::now();
      const auto due = t0 + schedule[s.i];
      live_latency_ms[s.i] = Ms(due, done);
      tracer.Add("serve.request", tracer.NewId(), loop_id, int64_t(s.i), due,
                 done);
      if (!r.status.ok()) {
        live_failed.fetch_add(1);
        continue;
      }
      const TopKQuery& q = live_queries[s.i];
      const std::string bad = CheckAnswerShape(train_graph, q, r.items);
      if (!bad.empty()) {
        live_problem(bad);
        continue;
      }
      if (w.open_loop_ann) {
        if (!ScoresMatch(*int8, q, r.items)) {
          live_problem("answer " + std::to_string(s.i) +
                       " scores differ from the own dequantized dot products");
        }
        continue;
      }
      // The answer was served by one version in [before, current]. The
      // current one is pinned here rather than looked up in the ring: the
      // ingest thread adds a version to the ring only after IngestBatch,
      // which has already published it, returns.
      const auto current = live->Acquire();
      bool matched = ScoresMatch(current->store, q, r.items);
      {
        std::lock_guard<std::mutex> lock(versions_mu);
        for (uint64_t v = s.version_before; v < current->sequence && !matched;
             ++v) {
          auto it = versions.find(v);
          if (it != versions.end()) {
            matched = ScoresMatch(it->second->store, q, r.items);
          }
        }
      }
      if (!matched) {
        live_problem("answer " + std::to_string(s.i) +
                     " matches no version in [" +
                     std::to_string(s.version_before) + ", " +
                     std::to_string(current->sequence) + "]");
      }
    }
    generator.join();
    ingest.join();
  }
  res.attempted += live_n + num_batches;
  res.failed += live_failed.load() + ingest_failed.load();
  latency_slice(2);
  res.attempted += latency_calls * kLatencyBatch;
  res.failed += latency_failed;
  std::printf("perfbench: latency slices, p%.0f of calls (ms):",
              100.0 * kLatencyQuantile);
  for (size_t slice = 0; slice < kLatencySlices; ++slice) {
    std::printf(" %.4f",
                Percentile(std::vector<double>(
                               call_ms.begin() + latency_calls * slice /
                                                     kLatencySlices,
                               call_ms.begin() + latency_calls * (slice + 1) /
                                                     kLatencySlices),
                           kLatencyQuantile));
  }
  std::printf("\n");
  std::printf("perfbench: attempted/failed: fits %zu/0, closed-loop requests "
              "%zu/%zu, latency queries %zu/%zu, open-loop requests "
              "%zu/%llu, ingest batches %zu/%llu\n",
              1 + w.gatne_fits, closed_n, closed_failed,
              latency_calls * kLatencyBatch, latency_failed, live_n,
              static_cast<unsigned long long>(live_failed.load()), num_batches,
              static_cast<unsigned long long>(ingest_failed.load()));
  std::printf("perfbench: open loop over %zu requests: p50 %.4f ms, p95 %.4f "
              "ms, p99 %.4f ms, max %.4f ms; generator lag p95 %.4f ms\n",
              live_n, Percentile(live_latency_ms, 0.50),
              Percentile(live_latency_ms, 0.95), Percentile(live_latency_ms, 0.99),
              Percentile(live_latency_ms, 1.0), Percentile(generator_lag_ms, 0.95));
  const obs::RegistrySnapshot reg_live1 = obs::GlobalRegistry().Snapshot();

  // After the last publish: version count, streamed edges excluded, and
  // sampled top-10 lists equal to brute force over the final rows.
  {
    const uint64_t want = 1 + num_batches - ingest_failed.load();
    if (live->version() != want) {
      live_problem("version " + std::to_string(live->version()) +
                   " after " + std::to_string(num_batches) + " batches");
    }
    auto final_version = live->Acquire();
    std::vector<TopKQuery> qs;
    std::vector<std::pair<NodeId, RelationId>> keys;
    for (size_t e = 0; e < num_batches * batch_edges; ++e) {
      const EdgeTriple& t = split.test_pos[e];
      const NodeTypeId src_t = train_graph.node_type(t.src);
      const NodeId u = src_t == user_type ? t.src : t.dst;
      const NodeId v = src_t == user_type ? t.dst : t.src;
      if (train_graph.node_type(v) != item_type) continue;
      if (!keys.empty() && keys.back() == std::make_pair(u, t.rel)) continue;
      keys.push_back({u, t.rel});
      TopKQuery q;
      q.node = u;
      q.rel = t.rel;
      q.k = kTopK;
      q.candidate_type = item_type;
      q.exclude_train_neighbors = true;
      qs.push_back(q);
    }
    auto answers = final_version->recommender->RecommendBatch(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
      if (!answers[i].ok()) {
        live_problem("final query failed: " + answers[i].status().ToString());
        continue;
      }
      const auto& ex = streamed[{qs[i].node, qs[i].rel}];
      for (const Recommendation& rec : *answers[i]) {
        if (std::binary_search(ex.begin(), ex.end(), rec.node)) {
          live_problem("streamed edge (" + std::to_string(qs[i].node) + ", " +
                       std::to_string(rec.node) + ") recommended");
        }
      }
      if (i < kTopListSample) {
        const auto exact =
            BruteForce(final_version->store, train_graph, qs[i], ex);
        const auto& got = *answers[i];
        const float* u = final_version->store.Lookup(qs[i].node, qs[i].rel);
        const double un = Norm(u, final_version->store.dim());
        if (got.size() != exact.size()) {
          live_problem("final top-10 size differs from brute force");
          continue;
        }
        for (size_t j = 0; j < got.size(); ++j) {
          // Equal lists up to exact ties: each position's own score of the
          // returned item equals the brute force's score at that rank.
          const float* row = final_version->store.Lookup(got[j].node, qs[i].rel);
          const size_t dim = final_version->store.dim();
          if (row == nullptr ||
              !ScoreMatches(exact[j].first, Dot(u, row, dim),
                            un * Norm(row, dim))) {
            live_problem("final top-10 of (" + std::to_string(qs[i].node) +
                         ", " + std::to_string(qs[i].rel) +
                         ") differs from brute force at rank " +
                         std::to_string(j));
            break;
          }
        }
      }
    }
  }

  // ---- metrics
  res.E2e("setup_s", setup_s, "s");
  res.E2e("hgnn_fit_s", hfit.fit_s, "s");
  res.E2e("gatne_fit_s",
          *std::min_element(gatne_fit_times.begin(), gatne_fit_times.end()),
          "s");
  res.E2e("hgnn_test_auc", hfit.auc, "percent");
  res.E2e("gatne_test_auc", gfit.auc, "percent");
  res.E2e("serve_batch_ms", Percentile(call_ms, kLatencyQuantile), "ms");

  res.E2e("recall_at_10", recall, "fraction");
  res.E2e("refresh_ms", Percentile(refresh_ms, kRefreshQuantile), "ms");
  res.E2e("peak_rss_mb", PeakRssMb(), "MB");

  if (trace) {
    // Per-query scoring time outside the service, on one thread.
    QueryGen gen(train_graph, user_type, item_type, seed ^ 0x5C0BE);
    std::vector<TopKQuery> sample(kScoreSample);
    for (auto& q : sample) q = gen.Next();
    const auto s0 = Clock::now();
    {
      ScopedSpan span(&tracer, "serve.score_sample", root);
      auto out = ann_rec->RecommendBatch(sample);
      for (const auto& o : out) {
        if (!o.ok()) res.Fail("score sample: " + o.status().ToString());
      }
    }
    const double score_us = Ms(s0, Clock::now()) * 1e3 / double(kScoreSample);

    const RegistryDelta hg = RegistryDelta::Between(reg_hgnn0, reg_hgnn1);
    const RegistryDelta train = RegistryDelta::Between(reg_hgnn0, reg_train1);
    const RegistryDelta closed_d = RegistryDelta::Between(reg_serve0, reg_serve1);
    const RegistryDelta serve_d = RegistryDelta::Between(reg_serve0, reg_live1);
    auto tick_s = [](const FitOutcome& f, const char* from, const char* to) {
      auto a = from ? f.ticks.First(from) : std::optional(f.start);
      auto b = f.ticks.First(to);
      return a && b ? Ms(*a, *b) / 1e3 : 0.0;
    };
    const double live_s = w.live_share * seconds;
    const double searches = closed_d.Counter("serve/ann_searches");
    const double batches = serve_d.Counter("serve/batches");
    res.Layer("data.generate_s", generate_s, "s");
    res.Layer("sampling.corpus_s", tick_s(hfit, nullptr, "corpus"), "s");
    res.Layer("sampling.pretrain_s", tick_s(hfit, "corpus", "pretrain"), "s");
    res.Layer("sampling.walks_generated", hg.Counter("sampling/walks_generated"), "count");
    res.Layer("sampling.pairs_generated", hg.Counter("sampling/pairs_generated"), "count");
    res.Layer("core.sgns_pairs_trained", hg.Counter("core/sgns_pairs_trained"), "count");
    res.Layer("core.epoch_s", hfit.ticks.MedianEpochSeconds(hfit.start), "s");
    res.Layer("core.cache_s", hfit.ticks.CacheSeconds(), "s");
    res.Layer("core.minibatches", hg.Counter("core/minibatches"), "count");
    res.Layer("core.gather_ms", hg.StageMs("core/gather"), "ms");
    res.Layer("core.segment_reduce_ms", hg.StageMs("core/segment_reduce"), "ms");
    res.Layer("core.attention_ms", hg.StageMs("core/attention"), "ms");
    res.Layer("core.fit_cpu_s", hfit.cpu_s, "s");
    res.Layer("core.busy_share",
              hfit.cpu_s / (hfit.fit_s * double(w.fit_threads)), "fraction");
    res.Layer("baselines.gatne_epoch_s", gfit.ticks.MedianEpochSeconds(gfit.start), "s");
    res.Layer("baselines.gatne_cache_s", gfit.ticks.CacheSeconds(), "s");
    res.Layer("baselines.gatne_busy_share",
              gfit.cpu_s / (gfit.fit_s * double(w.fit_threads)), "fraction");
    res.Layer("tensor.pool_hit", train.Counter("tensor/pool_hit"), "count");
    res.Layer("tensor.pool_miss", train.Counter("tensor/pool_miss"), "count");
    res.Layer("tensor.arena_bytes", train.Counter("tensor/arena_bytes"), "bytes");
    res.Layer("plan.replays",
              RegistryDelta::Between(reg_start, reg_live1).Counter("plan/replays"),
              "count");
    res.Layer("serve.export_s", export_s, "s");
    res.Layer("serve.load_checkpoint_s", load_s, "s");
    res.Layer("serve.quantize_s", quantize_s, "s");
    res.Layer("serve.ann_build_s", ann_build_s, "s");
    res.Layer("serve.ann_searches", searches, "count");
    res.Layer("serve.ann_fallbacks", closed_d.Counter("serve/ann_fallbacks"), "count");
    res.Layer("serve.ann_fallback_share",
              searches > 0 ? closed_d.Counter("serve/ann_fallbacks") / searches : 0.0,
              "fraction");
    res.Layer("serve.ann_hops", closed_d.Counter("serve/ann_hops"), "count");
    res.Layer("serve.ann_candidates", closed_d.Counter("serve/ann_candidates"), "count");
    res.Layer("serve.ann_rerank_rows", closed_d.Counter("serve/ann_rerank_rows"), "count");
    res.Layer("serve.score_us", score_us, "us");
    res.Layer("serve.qps", Percentile(round_qps, 0.5), "req/s");
    res.Layer("serve.batches", batches, "count");
    res.Layer("serve.mean_batch_size",
              batches > 0 ? serve_d.Counter("serve/requests") / batches : 0.0,
              "count");
    res.Layer("serve.p50_ms", WindowedPercentile(live_latency_ms, 0.50, live_s),
              "ms");
    res.Layer("serve.p95_ms", WindowedPercentile(live_latency_ms, 0.95, live_s),
              "ms");
    res.Layer("serve.generator_lag_ms", Percentile(generator_lag_ms, 0.95), "ms");
    res.Layer("stream.dirty_nodes", double(dirty_nodes), "count");
    res.Layer("stream.pairs_trained", double(pairs_trained), "count");
    res.Layer("stream.publishes", serve_d.Counter("stream/publishes"), "count");
  }

  run_span.End();
  if (trace) {
    const RegistryDelta all =
        RegistryDelta::Between(reg_start, obs::GlobalRegistry().Snapshot());
    const std::string path = "perfbench-out/trace-" + std::string(w.name) +
                             "-s" + std::to_string(seed) + ".json";
    WriteTrace(path, w, seed, tracer, all, res);
    std::printf("perfbench: trace written to %s (%zu spans)\n", path.c_str(),
                tracer.spans().size());
  }
  for (const std::string& p : res.problems) {
    std::printf("perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", ResultLine(res, trace).c_str());
  std::fflush(stdout);
  return 0;
}

int Main(int argc, char** argv) {
  // Pin the measured path: no HYBRIDGNN_* override reaches the library.
  std::vector<std::string> overrides;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HYBRIDGNN_", 10) == 0) {
      overrides.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const std::string& name : overrides) unsetenv(name.c_str());

  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !(seconds > 0.0)) {
    Die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) return Run(w, seed, seconds, trace != 0);
  }
  Die("unknown workload '" + workload + "'");
}

}  // namespace
}  // namespace hybridgnn::perfbench

int main(int argc, char** argv) {
  return hybridgnn::perfbench::Main(argc, argv);
}
