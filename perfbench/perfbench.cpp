// The repository's benchmark: three workloads over the public API, each
// run as its own process with the workload seed as an argument. See
// README.md for why each workload exists and which layer metric is meant
// to move which end-to-end metric.
//
//   perfbench --workload ingest_churn|ppr_serve|wtf_mixed --seed N
//             --seconds S --trace 0|1 --tmp DIR [--trace-out FILE]
//
// Every run: set up the system kSetupReps times (the last one is kept),
// measure `--seconds` of open-loop queries beside closed- or open-loop
// ingestion, restart from the durable state, then run the correctness
// checks (outside every timed region). The last stdout line is one JSON
// object {correct, attempted, failed, metrics} holding every metric the
// run measured; run.py selects the end-to-end or per-layer set.

#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/incremental_salsa.h"
#include "fastppr/core/theory.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/graph/generators.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/obs/phase_tracer.h"
#include "fastppr/serve/serving_tier.h"
#include "fastppr/util/random.h"
#include "trace.h"

using namespace fastppr;
using perfbench::Median;
using perfbench::Quantile;
using perfbench::SpanLog;
using serve::QueryClass;

namespace {

// Shared by all workloads: a preferential-attachment graph with
// out-degree 10 (rank exponent ~0.76, the paper's regime), R = 5 stored
// walks per node, reset probability 0.2.
constexpr std::size_t kOutDegree = 10;
constexpr std::size_t kWalksPerNode = 5;
constexpr double kEpsilon = 0.2;
constexpr double kAlpha = 0.76;
constexpr uint64_t kGraphSeed = 2010;
// The engine starts from this share of the edges; the rest arrive in
// the measured phase, followed by preferential-attachment edges drawn
// by the seed once they run out.
constexpr double kBootstrapShare = 0.8;
// Every 5th event deletes an earlier edge: 4 insertions per deletion.
constexpr std::size_t kDeleteEvery = 5;
// The closed-loop stream holds this many events per second of the
// phase, about 4x the 85-115k events/s of the writer the benchmark was
// defined with, so a faster writer still runs until the phase ends.
constexpr double kClosedLoopEventsPerSecond = 400'000.0;
// Restart recovers from a checkpoint taken after the measured phase plus
// this many windows logged after it, so it is the same work whatever the
// ingest rate was: a closed-loop phase logs as many windows as the
// writer managed.
constexpr std::size_t kRestartTailWindows = 16;
constexpr std::size_t kTopK = 10;
constexpr int kSetupReps = 3;
// Generator pacing: it sleeps in ticks of at most kTickNs (the
// freshness poll runs once per tick) and spins for the last kSpinNs
// before an arrival. Sleeping through to the arrival overshot by
// 50-100 us on the VM the benchmark was defined on, which was most of a
// Score's latency and most of its spread between runs.
constexpr uint64_t kTickNs = 50'000;
constexpr uint64_t kSpinNs = 100'000;
// Served personalized answers replayed against a rebuilt engine.
constexpr std::size_t kReplaySample = 16;
// Accounting tolerance of the closed-loop writer: its Ingest calls plus
// the final Quiesce must cover this share of the ingest wall time.
constexpr double kCoverageTolerance = 0.02;
// A run whose generator dispatched its p99 arrival later than this is
// invalid: the offered load arrived in bursts, not on its schedule. The
// largest p99 seen while the workloads were defined was 5 ms, on
// ingest_churn, whose closed-loop writer keeps every core busy; 20 ms is
// 4x that and below the 50 ms Score deadline.
constexpr double kMaxLagP99Ms = 20.0;

// Threads: kRepairThreads + kTierWorkers <= 3 on the 4-core box the
// workloads were defined on; the generator owns the remaining core.
// One repair thread: on ingest_churn the writer, pipeline and publisher
// threads already load the box, and with two the ingest rate was lower
// and spread more between runs.
constexpr std::size_t kShards = 4;
constexpr std::size_t kRepairThreads = 1;
constexpr std::size_t kTierWorkers = 2;
// Per-class deadlines, indexed by QueryClass: TopK, Score, personalized.
constexpr uint64_t kDeadlineMs[serve::kNumQueryClasses] = {250, 50, 500};

/// A workload: every rate and size is a constant fixed when the
/// workload was defined (README.md records how), never calibrated per
/// run. Query rates keep each tier worker busy at most ~20% of the
/// time: near 30%, all workers were busy for ~10% of arrivals, so the
/// p90 of the cheap classes sat on the edge between "a worker is free"
/// and "wait for a walk" and flipped between runs.
struct Spec {
  const char* name;
  bool salsa;
  std::size_t n;
  double ingest_eps;        ///< open-loop offered events/s; 0 = closed loop
  std::size_t window;       ///< events per Ingest call
  double query_qps;         ///< open-loop offered requests/s, all classes
  double frac_score;
  double frac_topk;         ///< personalized gets the rest
  bool zipf_seeds;          ///< Zipf(1.1) seeds, else uniform
  uint64_t walk_length;
  int restart_reps;         ///< restarts per run; restart_s is the median
  bool closed_loop() const { return ingest_eps == 0.0; }
};

constexpr Spec kSpecs[] = {
    // Churn ingest past the LLC: one closed-loop writer with a WAL fsync
    // per 4096-event window. A light read probe, 40/s of each class,
    // keeps every end-to-end metric defined; the writer saturates the
    // box, so these are reads-under-write-saturation latencies. At 10/s
    // per class, the median of ~90 walks from uniform seeds moved by a
    // quarter between runs with the seeds drawn.
    {"ingest_churn", false, 300'000, 0.0, 4096, 120.0, 0.34, 0.33, false, 8000,
     3},
    // Personalized serving: 80% personalized top-10 walks of 8000 steps
    // at ~25% of the tier's saturation, uniform seeds (the result cache
    // is bypassed), plus a small TopK/Score share and a trickle of
    // durable ingest so every metric is defined. The graph fits in the
    // LLC: at 300k nodes, walk latency moved by up to 40% between runs
    // with the other tenants' cache use.
    {"ppr_serve", false, 100'000, 2048.0, 128, 300.0, 0.15, 0.05, false, 8000,
     5},
    // SALSA who-to-follow inside the LLC: open-loop ingest in small
    // windows at ~1/3 of the idle SALSA rate beside an open-loop
    // 40/30/30 Score/TopK/personalized mix with Zipf(1.1) seeds.
    {"wtf_mixed", true, 100'000, 1800.0, 128, 700.0, 0.4, 0.3, true, 4000, 3},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;
  std::string trace_out;
  uint64_t stall_us = 0;     ///< self-test: sleep per personalized request
  double rate_scale = 1.0;   ///< self-test: scales the offered query rate
};

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Inputs: a pure function of (workload, seed).

struct Query {
  uint64_t arrival_ns = 0;  ///< offset from the phase start
  QueryClass cls = QueryClass::kScore;
  NodeId node = 0;
  uint64_t rng_seed = 0;
};

struct Inputs {
  std::vector<Edge> bootstrap;
  std::vector<EdgeEvent> stream;
  std::size_t phase_events = 0;  ///< the rest is the restart's WAL tail
  std::vector<Query> queries;
};

/// Zipf(s) over ranks by inverse CDF; rank r maps to node perm[r] so
/// popularity is independent of the generator's id order.
class ZipfNodes {
 public:
  ZipfNodes(std::size_t n, double s, Rng* rng) : cdf_(n), perm_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
    for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<NodeId>(i);
    rng->Shuffle(&perm_);
  }
  NodeId Draw(Rng* rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    const std::size_t r = it == cdf_.end()
                              ? cdf_.size() - 1
                              : static_cast<std::size_t>(it - cdf_.begin());
    return perm_[r];
  }

 private:
  std::vector<double> cdf_;
  std::vector<NodeId> perm_;
};

Inputs MakeInputs(const Spec& spec, uint64_t seed, double seconds,
                  double rate_scale) {
  Inputs in;
  // The graph is a constant of the workload, like a dataset: which
  // nodes are the hubs decides much of the walk and repair cost, and
  // letting it vary with the seed made that the largest spread between
  // runs. The seed draws everything else: which edges are bootstrapped
  // and in what order the rest arrive, the engine's RNG streams and the
  // request traffic.
  Rng graph_rng(kGraphSeed);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = spec.n;
  gen.out_per_node = kOutDegree;
  std::vector<Edge> edges = PreferentialAttachment(gen, &graph_rng);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  rng.Shuffle(&edges);
  const auto boot = static_cast<std::size_t>(
      static_cast<double>(edges.size()) * kBootstrapShare);
  in.bootstrap.assign(edges.begin(), edges.begin() + boot);
  // Enough events for the whole phase: the open-loop schedule's windows,
  // or kClosedLoopEventsPerSecond for a closed-loop writer.
  const double rate =
      spec.closed_loop() ? kClosedLoopEventsPerSecond : spec.ingest_eps;
  in.phase_events =
      static_cast<std::size_t>(std::ceil(seconds * rate)) + spec.window;
  const std::size_t want =
      in.phase_events + kRestartTailWindows * spec.window;
  // Deletions take bootstrap edges in (shuffled) order, each at most
  // once, so every deleted edge is present when its deletion arrives.
  FASTPPR_CHECK(want / kDeleteEvery < boot);
  std::size_t next_insert = boot;
  std::size_t next_delete = 0;
  in.stream.reserve(want);
  while (in.stream.size() < want) {
    if (in.stream.size() % kDeleteEvery == kDeleteEvery - 1) {
      in.stream.push_back(
          EdgeEvent{EdgeEvent::Kind::kDelete, in.bootstrap[next_delete++]});
      continue;
    }
    Edge e;
    if (next_insert < edges.size()) {
      e = edges[next_insert++];
    } else {
      // The held-out edges are used up: the graph keeps growing by
      // preferential attachment, a uniform source linking to the
      // destination of a uniformly drawn edge.
      e.dst = edges[rng.UniformIndex(edges.size())].dst;
      do {
        e.src = static_cast<NodeId>(rng.UniformIndex(spec.n));
      } while (e.src == e.dst);
    }
    in.stream.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }

  Rng qrng(seed * 0xD1B54A32D192ED03ULL + 7);
  std::unique_ptr<ZipfNodes> zipf;
  if (spec.zipf_seeds) zipf = std::make_unique<ZipfNodes>(spec.n, 1.1, &qrng);
  const double mean_gap_ns = 1e9 / (spec.query_qps * rate_scale);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - qrng.NextDouble()) * mean_gap_ns;
    if (t >= seconds * 1e9) break;
    Query q;
    q.arrival_ns = static_cast<uint64_t>(t);
    const double u = qrng.NextDouble();
    q.cls = u < spec.frac_score ? QueryClass::kScore
            : u < spec.frac_score + spec.frac_topk ? QueryClass::kTopK
                                                   : QueryClass::kPersonalized;
    q.node = zipf ? zipf->Draw(&qrng)
                  : static_cast<NodeId>(qrng.UniformIndex(spec.n));
    q.rng_seed = qrng.NextUint64();
    in.queries.push_back(q);
  }
  return in;
}

DiGraph BuildGraph(std::size_t n, const std::vector<Edge>& edges) {
  DiGraph g(n);
  for (const Edge& e : edges) FASTPPR_CHECK(g.AddEdge(e.src, e.dst).ok());
  return g;
}

MonteCarloOptions EngineOptions(uint64_t seed) {
  MonteCarloOptions opts;
  opts.walks_per_node = kWalksPerNode;
  opts.epsilon = kEpsilon;
  opts.seed = seed * 0xBF58476D1CE4E5B9ULL + 3;
  return opts;
}

ShardedOptions Sharding() {
  ShardedOptions s;
  s.num_shards = kShards;
  s.num_threads = kRepairThreads;
  return s;
}

serve::ServingTierOptions TierOptions() {
  serve::ServingTierOptions o;
  o.num_workers = kTierWorkers;
  // Deep queues and a slow controlled-delay horizon: at the workloads'
  // offered rates nothing should shed; a change that makes the tier
  // shed or degrade shows up in full_frac.
  o.queue.capacity = 4096;
  o.queue.target_delay_ns = 100'000'000;
  o.queue.shed_interval_ns = 400'000'000;
  return o;
}

// ---------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const char* unit,
           std::size_t samples = 1, std::string note = "") {
    metrics[name] = Metric{value, unit, samples, std::move(note)};
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

std::string PctLabel(double q, std::size_t n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu", q * 100.0, n);
  return buf;
}

/// Median and p90 of one timing sample, in ms. The tail is p90, not
/// p99: on a shared 4-core host, p99 of a 10 s run moved by 30-100%
/// between runs of one workload, beyond any usable bound.
void SetTiming(Result* r, const std::string& prefix,
               const std::vector<double>& ms) {
  r->Set(prefix + "_p50_ms", Median(ms), "ms", ms.size(),
         PctLabel(0.5, ms.size()));
  r->Set(prefix + "_p90_ms", Quantile(ms, 0.9), "ms", ms.size(),
         PctLabel(0.9, ms.size()));
}

/// Deletes the durability directory on every exit path.
class TmpDir {
 public:
  explicit TmpDir(std::string path) : path_(std::move(path)) {}
  ~TmpDir() { Remove(); }
  TmpDir(const TmpDir&) = delete;
  TmpDir& operator=(const TmpDir&) = delete;
  const std::string& path() const { return path_; }
  void Remove() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------
// The run.

/// One request's outcome, written by exactly one on_done.
struct Record {
  uint64_t sched_ns = 0;
  uint64_t dispatch_ns = 0;
  uint64_t done_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t service_ns = 0;
  uint64_t min_epoch = 0;
  uint64_t max_epoch = 0;
  bool ok = false;
  bool full = false;
  bool cache_hit = false;
  bool fallback = false;
  std::vector<ScoredNode> ranked;
};

/// One Ingest call of the measured phase.
struct Window {
  std::size_t begin = 0;
  std::size_t size = 0;
  uint64_t sched_ns = 0;
  uint64_t submit_ns = 0;
  uint64_t ack_ns = 0;
  bool ok = false;
};

template <typename Engine>
class Workload {
  using Sharded = ShardedEngine<Engine>;
  using Service = QueryService<Engine>;
  using Tier = serve::ServingTier<Engine>;
  static constexpr bool kIsSalsa =
      std::is_same_v<Engine, IncrementalSalsa>;

 public:
  Workload(const Spec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        spans_(args.trace),
        tmp_(args.tmp + "/durable") {}

  Result Run() {
    inputs_ = MakeInputs(spec_, args_.seed, args_.seconds, args_.rate_scale);
    Setup();
    Measure();
    const double peak_rss = PeakRssMb();
    result_.Set("peak_rss_mb", peak_rss, "MB");
    if (args_.trace) ProbeLayers();
    Restart();
    ReplayServedAnswers();
    if (args_.trace) {
      GraphBaseline();
      FlatBaseline();
      if (!args_.trace_out.empty() &&
          !spans_.WriteChromeTrace(args_.trace_out)) {
        std::fprintf(stderr, "warning: could not write %s\n",
                     args_.trace_out.c_str());
      }
    }
    tmp_.Remove();
    return std::move(result_);
  }

 private:
  // --- set-up ---------------------------------------------------------

  void Setup() {
    std::vector<double> reps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      service_.reset();
      engine_.reset();
      tmp_.Remove();
      const uint64_t t0 = obs::NowNanos();
      DiGraph g = BuildGraph(spec_.n, inputs_.bootstrap);
      const uint64_t t1 = obs::NowNanos();
      engine_ = std::make_unique<Sharded>(g, EngineOptions(args_.seed),
                                          Sharding());
      const uint64_t t2 = obs::NowNanos();
      DurabilityOptions dur;
      dur.directory = tmp_.path();
      dur.checkpoint_interval_windows = 0;  // one checkpoint, at set-up
      dur.sync_wal = true;
      FASTPPR_CHECK(engine_->EnableDurability(dur).ok());
      const uint64_t t3 = obs::NowNanos();
      service_ = std::make_unique<Service>(engine_.get());
      const uint64_t t4 = obs::NowNanos();
      reps.push_back(Seconds(t4 - t0));
      const uint64_t root = spans_.Add("setup", t0, t4);
      spans_.Add("graph.DiGraph.build", t0, t1, root);
      spans_.Add("engine.ShardedEngine.construct", t1, t2, root);
      spans_.Add("store.checkpoint", t2, t3, root);
      spans_.Add("engine.QueryService.attach", t3, t4, root);
    }
    result_.Set("setup_s", Median(reps), "s", reps.size(),
                "median of set-ups");
    num_edges_boot_ = engine_->num_edges();
  }

  // --- measured phase -------------------------------------------------

  void Measure() {
    Tier tier(service_.get(), TierOptions());
    if (args_.stall_us > 0) {
      const auto stall = std::chrono::microseconds(args_.stall_us);
      tier.SetFaultHook([stall](QueryClass cls) {
        if (cls == QueryClass::kPersonalized) {
          std::this_thread::sleep_for(stall);
        }
      });
    }
    const obs::EngineMetrics& om = engine_->metric_handles();
    const WalkUpdateStats stats0 = engine_->lifetime_stats();
    const uint64_t wal_bytes0 = om.wal_bytes->Total();
    const auto volume0 = service_->publish_volume();
    om.wal_fsync->Reset();
    engine_->phase_tracer()->Clear();
    epoch0_ = service_->frozen_epoch();

    const std::vector<Query>& queries = inputs_.queries;
    records_.assign(queries.size(), Record{});
    windows_.clear();
    windows_.reserve(inputs_.stream.size() / spec_.window + 2);
    std::atomic<uint64_t> resolved{0};
    std::atomic<bool> writer_done{false};
    bool stream_ran_out = false;
    uint64_t quiesce_start = 0;
    uint64_t quiesce_end = 0;

    const uint64_t phase_ns =
        static_cast<uint64_t>(args_.seconds * 1e9);
    const uint64_t t0 = obs::NowNanos() + 1'000'000;
    const uint64_t t_end = t0 + phase_ns;

    std::thread writer([&] {
      const double gap_ns =
          spec_.closed_loop()
              ? 0.0
              : 1e9 * static_cast<double>(spec_.window) / spec_.ingest_eps;
      std::size_t next = 0;
      SleepUntil(t0);
      for (std::size_t k = 0;; ++k) {
        Window w;
        w.sched_ns = spec_.closed_loop()
                         ? obs::NowNanos()
                         : t0 + static_cast<uint64_t>(
                                    gap_ns * static_cast<double>(k));
        if (w.sched_ns >= t_end) break;
        if (next == inputs_.phase_events) {
          stream_ran_out = true;
          break;
        }
        SleepUntil(w.sched_ns);
        w.begin = next;
        w.size = std::min(spec_.window, inputs_.phase_events - next);
        next += w.size;
        w.submit_ns = obs::NowNanos();
        w.ok = service_->Ingest(std::span<const EdgeEvent>(
                                    inputs_.stream.data() + w.begin, w.size))
                   .ok();
        w.ack_ns = obs::NowNanos();
        spans_.Add("engine.QueryService.Ingest", w.submit_ns, w.ack_ns, 0,
                   0, 1);
        windows_.push_back(w);
      }
      quiesce_start = obs::NowNanos();
      service_->Quiesce();
      quiesce_end = obs::NowNanos();
      spans_.Add("engine.QueryService.Quiesce", quiesce_start, quiesce_end,
                 0, 0, 1);
      writer_done.store(true, std::memory_order_release);
    });

    // The generator: dispatches due arrivals and polls freshness once
    // per loop until every arrival is out and every window is visible.
    std::size_t dispatched = 0;
    uint64_t last_epoch = epoch0_;
    SleepUntil(t0);
    for (;;) {
      const uint64_t now = obs::NowNanos();
      const uint64_t epoch = service_->frozen_epoch();
      if (epoch > last_epoch) {
        epoch_seen_.push_back({epoch, now});
        last_epoch = epoch;
      }
      while (dispatched < queries.size() &&
             t0 + queries[dispatched].arrival_ns <= now) {
        Dispatch(&tier, queries[dispatched], t0, &records_[dispatched],
                 dispatched, &resolved);
        ++dispatched;
      }
      if (dispatched == queries.size() &&
          writer_done.load(std::memory_order_acquire)) {
        const uint64_t final_epoch = service_->frozen_epoch();
        if (final_epoch > last_epoch) {
          epoch_seen_.push_back({final_epoch, obs::NowNanos()});
        }
        break;
      }
      const uint64_t next_arrival =
          dispatched < queries.size() ? t0 + queries[dispatched].arrival_ns
                                      : ~uint64_t{0};
      const uint64_t after = obs::NowNanos();
      if (next_arrival > after + kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min(kTickNs, next_arrival - after - kSpinNs)));
      } else {
        // Spin on the clock alone: no lock the tier's workers also take.
        while (obs::NowNanos() < next_arrival) {
        }
      }
    }
    writer.join();
    while (resolved.load(std::memory_order_acquire) < dispatched) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    tier.Shutdown();

    // --- end-to-end ---
    const serve::OutcomeCounts outcomes = tier.outcomes();
    result_.Check(outcomes.resolved() == tier.submitted() &&
                      tier.submitted() == dispatched,
                  "serving tier resolved != submitted");
    uint64_t events = 0;
    uint64_t failed_windows = 0;
    for (const Window& w : windows_) {
      events += w.size;
      if (!w.ok) ++failed_windows;
    }
    result_.Check(!windows_.empty(), "no ingest window was submitted");
    // The writer must be active for the whole phase: the read latencies
    // are reads beside writes, and a closed-loop ingest_eps is a rate
    // over the phase, not the time a fixed amount of work took.
    result_.Check(!stream_ran_out,
                  "the ingest stream ran out before the phase ended");
    result_.attempted = dispatched + windows_.size();
    result_.failed = (dispatched - outcomes.admitted_full -
                      outcomes.admitted_degraded) +
                     failed_windows;
    events_ingested_ = events;
    const uint64_t first_submit =
        windows_.empty() ? t0 : windows_.front().submit_ns;
    result_.Set("ingest_eps",
                static_cast<double>(events) /
                    Seconds(quiesce_end - first_submit),
                "1/s", windows_.size(), "events / (first submit .. visible)");

    std::vector<double> fresh_ms;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      const uint64_t want = epoch0_ + i + 1;
      while (seen < epoch_seen_.size() && epoch_seen_[seen].first < want) {
        ++seen;
      }
      const uint64_t visible =
          seen < epoch_seen_.size() ? epoch_seen_[seen].second : quiesce_end;
      fresh_ms.push_back(Ms(visible - windows_[i].sched_ns));
    }
    SetTiming(&result_, "fresh", fresh_ms);

    std::vector<double> lat[serve::kNumQueryClasses];
    std::vector<double> queue_us[serve::kNumQueryClasses];
    std::vector<double> service_us[serve::kNumQueryClasses];
    std::vector<double> unaccounted_us[serve::kNumQueryClasses];
    std::vector<double> lag_ms;
    double accounted_ns = 0.0;
    double latency_ns = 0.0;
    uint64_t multi_epoch = 0;
    for (std::size_t i = 0; i < dispatched; ++i) {
      const Record& r = records_[i];
      const auto cls = static_cast<std::size_t>(queries[i].cls);
      lag_ms.push_back(Ms(r.dispatch_ns - r.sched_ns));
      if (!r.ok) continue;
      lat[cls].push_back(Ms(r.done_ns - r.sched_ns));
      if (queries[i].cls == QueryClass::kPersonalized && !r.fallback &&
          r.min_epoch != r.max_epoch) {
        ++multi_epoch;
      }
      if (r.cache_hit) continue;
      queue_us[cls].push_back(Us(r.queue_ns));
      service_us[cls].push_back(Us(r.service_ns));
      const uint64_t accounted =
          (r.dispatch_ns - r.sched_ns) + r.queue_ns + r.service_ns;
      const uint64_t latency = r.done_ns - r.sched_ns;
      accounted_ns += static_cast<double>(accounted);
      latency_ns += static_cast<double>(latency);
      unaccounted_us[cls].push_back(
          latency > accounted ? Us(latency - accounted) : 0.0);
    }
    result_.Check(multi_epoch == 0,
                  "a personalized answer spans more than one epoch");
    const std::size_t kT = static_cast<std::size_t>(QueryClass::kTopK);
    const std::size_t kS = static_cast<std::size_t>(QueryClass::kScore);
    const std::size_t kP = static_cast<std::size_t>(QueryClass::kPersonalized);
    SetTiming(&result_, "topk", lat[kT]);
    SetTiming(&result_, "score", lat[kS]);
    SetTiming(&result_, "ppr", lat[kP]);
    result_.Set("full_frac",
                dispatched == 0
                    ? 1.0
                    : static_cast<double>(outcomes.admitted_full) /
                          static_cast<double>(dispatched),
                "ratio", dispatched, "full-fidelity answers / attempted");

    // --- per layer: serve + load generator ---
    const char* cls_name[] = {"topk", "score", "ppr"};
    for (std::size_t c = 0; c < serve::kNumQueryClasses; ++c) {
      const std::string p = std::string("serve.") + cls_name[c];
      result_.Set(p + ".queue_wait_us_p50", Median(queue_us[c]), "us",
                  queue_us[c].size());
      result_.Set(p + ".queue_wait_us_p99", Quantile(queue_us[c], 0.99),
                  "us", queue_us[c].size());
      result_.Set(p + ".service_us_p50", Median(service_us[c]), "us",
                  service_us[c].size());
      result_.Set(p + ".service_us_p99", Quantile(service_us[c], 0.99),
                  "us", service_us[c].size());
      result_.Set(p + ".unaccounted_us_p50", Median(unaccounted_us[c]), "us",
                  unaccounted_us[c].size(), "latency - lag - queue - service");
    }
    const uint64_t batches = tier.batches_executed();
    result_.Set("serve.batch_mean",
                batches == 0 ? 0.0
                             : static_cast<double>(tier.batched_requests()) /
                                   static_cast<double>(batches),
                "count", batches);
    const auto cache = tier.cache_stats();
    result_.Set("serve.cache_hit_rate",
                cache.hits + cache.misses == 0
                    ? 0.0
                    : static_cast<double>(cache.hits) /
                          static_cast<double>(cache.hits + cache.misses),
                "ratio", cache.hits + cache.misses);
    std::size_t high_water = 0;
    for (auto cls : {QueryClass::kTopK, QueryClass::kScore,
                     QueryClass::kPersonalized}) {
      high_water = std::max(high_water, tier.queue_high_water(cls));
    }
    result_.Set("serve.queue_high_water", static_cast<double>(high_water),
                "count");
    result_.Set("serve.shed", static_cast<double>(outcomes.shed), "count");
    result_.Set("serve.degraded",
                static_cast<double>(outcomes.admitted_degraded), "count");
    const double attempted_q =
        std::max<double>(1.0, static_cast<double>(dispatched));
    result_.Set("serve.degraded_frac",
                static_cast<double>(outcomes.admitted_degraded) / attempted_q,
                "ratio", dispatched);
    result_.Set("serve.failed_frac",
                static_cast<double>(outcomes.shed + outcomes.deadline_expired +
                                    outcomes.unavailable + outcomes.failed) /
                    attempted_q,
                "ratio", dispatched);
    result_.Set("serve.unaccounted_frac",
                latency_ns == 0.0 ? 0.0 : 1.0 - accounted_ns / latency_ns,
                "ratio", dispatched,
                "1 - (lag + queue + service) / latency");
    if (!spec_.closed_loop()) {
      for (const Window& w : windows_) {
        lag_ms.push_back(Ms(w.submit_ns - w.sched_ns));
      }
    }
    const double lag_p99 = Quantile(lag_ms, 0.99);
    result_.Set("driver.lag_p99_ms", lag_p99, "ms", lag_ms.size());
    result_.Check(lag_p99 <= kMaxLagP99Ms,
                  "the generator dispatched late: the offered load arrived "
                  "in bursts");

    // --- per layer: engine + store + core (ingest side) ---
    std::vector<double> call_us;
    uint64_t call_ns = 0;
    for (const Window& w : windows_) {
      call_us.push_back(Us(w.ack_ns - w.submit_ns));
      call_ns += w.ack_ns - w.submit_ns;
    }
    result_.Set("engine.ingest_call_us_p50", Median(call_us), "us",
                call_us.size());
    result_.Set("engine.ingest_call_us_p99", Quantile(call_us, 0.99), "us",
                call_us.size());
    const double coverage =
        static_cast<double>(call_ns + (quiesce_end - quiesce_start)) /
        static_cast<double>(quiesce_end - first_submit);
    result_.Set("driver.ingest_call_coverage", coverage, "ratio",
                windows_.size(), "(Ingest calls + final Quiesce) / wall");
    if (args_.trace && spec_.closed_loop()) {
      result_.Check(coverage >= 1.0 - kCoverageTolerance,
                    "Ingest calls + Quiesce do not cover the ingest wall "
                    "time within tolerance");
    }

    const obs::PhaseTracer::Totals totals =
        engine_->phase_tracer()->ComputeTotals();
    const double threads = static_cast<double>(engine_->num_threads());
    result_.Set("engine.util_ingest",
                totals.Utilization(obs::Phase::kIngest), "ratio");
    result_.Set("engine.util_repair",
                totals.Utilization(obs::Phase::kRepair, threads), "ratio");
    result_.Set("engine.util_publish",
                totals.Utilization(obs::Phase::kPublish), "ratio");
    const auto& pub =
        totals.phase[static_cast<std::size_t>(obs::Phase::kPublish)];
    result_.Set("engine.publish_ms",
                pub.span_count == 0 ? 0.0
                                    : Ms(pub.busy_ns) /
                                          static_cast<double>(pub.span_count),
                "ms", pub.span_count);

    const WalkUpdateStats stats1 = engine_->lifetime_stats();
    const double ev = std::max<double>(1.0, static_cast<double>(events));
    const uint64_t steps = stats1.walk_steps - stats0.walk_steps;
    const uint64_t segments =
        stats1.segments_updated - stats0.segments_updated;
    result_.Set("core.repair_steps_per_event",
                static_cast<double>(steps) / ev, "count");
    // The bound averaged over the phase's arrivals, arrival t being the
    // graph's t-th edge; Theorem 6 (SALSA) is 16x the Theorem 4 rate.
    uint64_t inserts = 0;
    for (std::size_t i = 0; i < events; ++i) {
      if (inputs_.stream[i].kind == EdgeEvent::Kind::kInsert) ++inserts;
    }
    double bound = 0.0;
    for (uint64_t j = 1; j <= inserts; ++j) {
      bound += Theorem4SegmentsPerArrival(spec_.n, kWalksPerNode, kEpsilon,
                                          num_edges_boot_ + j);
    }
    bound /= std::max<double>(1.0, static_cast<double>(inserts));
    if (kIsSalsa) bound *= 16.0;
    result_.Set("core.repair_vs_bound",
                bound == 0.0 ? 0.0 : static_cast<double>(segments) / ev / bound,
                "ratio", events, "segments per event / bound per arrival");
    const auto& rep =
        totals.phase[static_cast<std::size_t>(obs::Phase::kRepair)];
    result_.Set("core.repair_ns_per_step",
                steps == 0 ? 0.0
                           : static_cast<double>(rep.busy_ns) /
                                 static_cast<double>(steps),
                "ns", steps);

    const auto wal = om.wal_fsync->Summarize();
    result_.Set("store.wal_fsync_us_p50", Us(wal.p50_ns), "us", wal.count);
    result_.Set("store.wal_fsync_us_p99", Us(wal.p99_ns), "us", wal.count);
    result_.Set("store.wal_bytes_per_event",
                static_cast<double>(om.wal_bytes->Total() - wal_bytes0) / ev,
                "B");

    const auto volume1 = service_->publish_volume();
    const uint64_t delta_bytes =
        volume1.publish_delta_bytes() - volume0.publish_delta_bytes();
    const uint64_t presented =
        volume1.presented_bytes - volume0.presented_bytes;
    result_.Set("engine.publish_bytes_per_window",
                static_cast<double>(delta_bytes) /
                    std::max<double>(1.0, static_cast<double>(windows_.size())),
                "B");
    result_.Set("engine.publish_bytes_per_delta_byte",
                presented == 0 ? 0.0
                               : static_cast<double>(delta_bytes) /
                                     static_cast<double>(presented),
                "ratio");
    result_.Set("engine.replica_bytes",
                static_cast<double>(engine_->RepairReplicaBytes()), "B");
    result_.Set("graph.bytes_per_edge",
                static_cast<double>(engine_->GraphMemoryBytes()) /
                    static_cast<double>(engine_->num_edges()),
                "B");
    result_.Set("store.frozen_segment_bytes",
                static_cast<double>(service_->FrozenStats().segment_bytes),
                "B");
  }

  void Dispatch(Tier* tier, const Query& q, uint64_t t0, Record* rec,
                std::size_t id, std::atomic<uint64_t>* resolved) {
    rec->sched_ns = t0 + q.arrival_ns;
    rec->dispatch_ns = obs::NowNanos();
    serve::Request req;
    req.cls = q.cls;
    req.node = q.node;
    req.k = kTopK;
    req.walk_length = spec_.walk_length;
    req.exclude_friends = true;
    req.rng_seed = q.rng_seed;
    req.deadline = serve::Deadline::AtNanos(
        rec->sched_ns +
        kDeadlineMs[static_cast<std::size_t>(q.cls)] * 1'000'000);
    req.arrival_ns = rec->sched_ns;
    SpanLog* spans = &spans_;
    req.on_done = [rec, id, resolved, spans](const serve::Response& resp) {
      rec->done_ns = obs::NowNanos();
      rec->ok = resp.status.ok();
      rec->full = resp.status.ok() && !resp.degraded();
      rec->cache_hit = resp.cache_hit;
      rec->fallback = resp.degrade == serve::DegradeLevel::kStaleFallback;
      rec->queue_ns = resp.queue_ns;
      rec->service_ns = resp.service_ns;
      rec->min_epoch = resp.snapshot.min_epoch;
      rec->max_epoch = resp.snapshot.max_epoch;
      rec->ranked = resp.ranked;
      if (spans->enabled()) {
        // Queue and service spans are placed back to back, ending at
        // completion; the gap to the request's start is lag plus time
        // the tier does not account for.
        const uint64_t root = spans->Add("serve.request", rec->sched_ns,
                                         rec->done_ns, 0, id + 1, 2);
        const uint64_t svc_start = rec->done_ns - resp.service_ns;
        spans->Add("serve.queue", svc_start - resp.queue_ns, svc_start, root,
                   id + 1, 2);
        spans->Add("serve.service", svc_start, rec->done_ns, root, id + 1,
                   2);
      }
      resolved->fetch_add(1, std::memory_order_release);
    };
    tier->Submit(std::move(req));
  }

  static void SleepUntil(uint64_t at_ns) {
    for (;;) {
      const uint64_t now = obs::NowNanos();
      if (now >= at_ns) return;
      std::this_thread::sleep_for(std::chrono::nanoseconds(at_ns - now));
    }
  }

  // --- isolated layer probes (traced run, outside the timed phase) ------

  void ProbeLayers() {
    // Personalized walks on sampled workload seeds, called directly.
    std::vector<const Query*> sample;
    for (const Query& q : inputs_.queries) {
      if (q.cls == QueryClass::kPersonalized) sample.push_back(&q);
      if (sample.size() == 32) break;
    }
    uint64_t walk_ns = 0;
    uint64_t steps = 0;
    uint64_t fetches = 0;
    for (const Query* q : sample) {
      std::vector<ScoredNode> ranked;
      typename Service::WalkStats stats;
      const uint64_t t0 = obs::NowNanos();
      const Status st =
          service_->PersonalizedTopK(q->node, kTopK, spec_.walk_length, true,
                                     q->rng_seed, &ranked, &stats);
      const uint64_t t1 = obs::NowNanos();
      result_.Check(st.ok(), "direct PersonalizedTopK failed");
      spans_.Add("core.PersonalizedTopK", t0, t1);
      walk_ns += t1 - t0;
      steps += stats.length;
      fetches += stats.fetches;
    }
    const double nq = std::max<double>(1.0, static_cast<double>(sample.size()));
    result_.Set("core.ppr_ns_per_step",
                steps == 0 ? 0.0
                           : static_cast<double>(walk_ns) /
                                 static_cast<double>(steps),
                "ns", sample.size());
    result_.Set("core.ppr_fetches_per_query",
                static_cast<double>(fetches) / nq, "count", sample.size());
    // Corollary 9 with c taken from the walk length by Eq. (4).
    const double k = static_cast<double>(kTopK);
    const double c = static_cast<double>(spec_.walk_length) * (1.0 - kAlpha) /
                     (k * std::pow(static_cast<double>(spec_.n) / k,
                                   1.0 - kAlpha));
    const double fetch_bound =
        Corollary9FetchBound(kTopK, kWalksPerNode, kAlpha, c);
    result_.Set("core.ppr_fetches_vs_bound",
                static_cast<double>(fetches) / nq / fetch_bound, "ratio",
                sample.size(), "fetches / Corollary 9 bound");

    std::vector<double> topk_us;
    for (int i = 0; i < 16; ++i) {
      const uint64_t t0 = obs::NowNanos();
      const std::vector<NodeId> top = service_->TopK(kTopK);
      const uint64_t t1 = obs::NowNanos();
      spans_.Add("engine.QueryService.TopK", t0, t1);
      topk_us.push_back(Us(t1 - t0));
      result_.Check(top.size() == kTopK, "direct TopK returned short");
    }
    result_.Set("engine.topk_read_us", Median(topk_us), "us", topk_us.size());

    // Score is ~100 ns: time blocks of 64 calls.
    std::vector<double> score_ns;
    double sink = 0.0;
    std::size_t qi = 0;
    for (int block = 0; block < 64; ++block) {
      const uint64_t t0 = obs::NowNanos();
      for (int i = 0; i < 64; ++i) {
        sink += service_->Score(
            inputs_.queries[qi++ % inputs_.queries.size()].node);
      }
      const uint64_t t1 = obs::NowNanos();
      spans_.Add("engine.QueryService.Score", t0, t1);
      score_ns.push_back(static_cast<double>(t1 - t0) / 64.0);
    }
    result_.Check(sink > 0.0, "direct Score reads summed to zero");
    result_.Set("engine.score_read_ns", Median(score_ns), "ns",
                score_ns.size() * 64);
  }

  // --- restart ----------------------------------------------------------

  void Restart() {
    // Untimed: checkpoint the post-phase state, then log the fixed tail.
    FASTPPR_CHECK(engine_->Checkpoint().ok());
    for (std::size_t k = 0; k < kRestartTailWindows; ++k) {
      const std::size_t begin = events_ingested_ + k * spec_.window;
      result_.Check(service_
                        ->Ingest(std::span<const EdgeEvent>(
                            inputs_.stream.data() + begin, spec_.window))
                        .ok(),
                    "a restart-tail window was rejected");
    }
    service_->Quiesce();
    const std::vector<NodeId> live_top = service_->TopK(kTopK);
    const std::vector<uint8_t> live_state = engine_->SerializeState();
    service_.reset();
    engine_.reset();

    // Recover only reads the durability directory, so a run can restart
    // several times from the same files. The first restart is checked.
    std::vector<double> restart_s;
    std::vector<double> recover_s;
    std::vector<double> attach_s;
    for (int rep = 0; rep < spec_.restart_reps; ++rep) {
      const uint64_t t0 = obs::NowNanos();
      std::unique_ptr<Sharded> recovered;
      RecoveryInfo info;
      const Status st = Sharded::Recover(tmp_.path(), kRepairThreads,
                                         &recovered, &info);
      const uint64_t t1 = obs::NowNanos();
      FASTPPR_CHECK_MSG(st.ok(), "Recover failed");
      auto service = std::make_unique<Service>(recovered.get());
      const uint64_t t2 = obs::NowNanos();
      const std::vector<NodeId> top = service->TopK(kTopK);
      const uint64_t t3 = obs::NowNanos();
      const uint64_t root = spans_.Add("restart", t0, t3);
      spans_.Add("store.ShardedEngine.Recover", t0, t1, root);
      spans_.Add("engine.QueryService.attach", t1, t2, root);
      spans_.Add("engine.QueryService.TopK", t2, t3, root);
      restart_s.push_back(Seconds(t3 - t0));
      recover_s.push_back(Seconds(t1 - t0));
      attach_s.push_back(Seconds(t2 - t1));

      if (rep > 0) continue;
      result_.Check(top == live_top, "first TopK after restart differs");
      result_.Check(info.replayed_windows == kRestartTailWindows,
                    "restart did not replay exactly the WAL tail");
      result_.Check(recovered->SerializeState() == live_state,
                    "recovered SerializeState differs from the live engine");
      recovered->CheckConsistency();
      result_.Set("store.replayed_windows",
                  static_cast<double>(info.replayed_windows), "count");
    }
    result_.Set("restart_s", Median(restart_s), "s", restart_s.size(),
                "median of Recover + attach + first TopK");
    result_.Set("store.recover_s", Median(recover_s), "s", recover_s.size());
    result_.Set("engine.service_attach_s", Median(attach_s), "s",
                attach_s.size());
  }

  // --- served answers replayed at their epoch ----------------------------

  void ReplayServedAnswers() {
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (inputs_.queries[i].cls == QueryClass::kPersonalized && r.full &&
          !r.cache_hit && r.min_epoch == r.max_epoch) {
        sample.push_back(i);
      }
    }
    // The earliest epochs: replaying them needs the fewest windows.
    std::stable_sort(sample.begin(), sample.end(),
                     [&](std::size_t a, std::size_t b) {
                       return records_[a].min_epoch < records_[b].min_epoch;
                     });
    if (sample.size() > kReplaySample) sample.resize(kReplaySample);
    result_.Check(sample.size() >= 4,
                  "too few served personalized answers to replay");

    auto engine = std::make_unique<Sharded>(
        BuildGraph(spec_.n, inputs_.bootstrap), EngineOptions(args_.seed),
        Sharding());
    auto service = std::make_unique<Service>(engine.get());
    result_.Check(service->frozen_epoch() == epoch0_,
                  "rebuilt engine starts at another epoch");
    std::size_t applied = 0;
    std::size_t replayed = 0;
    for (std::size_t i : sample) {
      const Record& r = records_[i];
      while (epoch0_ + applied < r.min_epoch && applied < windows_.size()) {
        const Window& w = windows_[applied++];
        (void)service->Ingest(std::span<const EdgeEvent>(
            inputs_.stream.data() + w.begin, w.size));
      }
      service->Quiesce();
      if (service->frozen_epoch() != r.min_epoch) {
        result_.Check(false, "could not rebuild a served answer's epoch");
        break;
      }
      const Query& q = inputs_.queries[i];
      std::vector<ScoredNode> ranked;
      SnapshotInfo info;
      const Status st = service->PersonalizedTopK(
          q.node, kTopK, spec_.walk_length, true, q.rng_seed, &ranked,
          nullptr, &info);
      bool same = st.ok() && info.min_epoch == r.min_epoch &&
                  ranked.size() == r.ranked.size();
      for (std::size_t j = 0; same && j < ranked.size(); ++j) {
        same = ranked[j].node == r.ranked[j].node &&
               ranked[j].visits == r.ranked[j].visits &&
               ranked[j].score == r.ranked[j].score;
      }
      result_.Check(same, "a served personalized answer is not bit-identical "
                          "to its replay at the same epoch");
      ++replayed;
    }
    std::fprintf(stderr, "  replayed %zu served personalized answers\n",
                 replayed);
  }

  // --- single-layer baselines (traced run) -------------------------------

  /// ns per AddEdge/RemoveEdge on a standalone DiGraph replaying the
  /// phase's events.
  void GraphBaseline() {
    DiGraph g = BuildGraph(spec_.n, inputs_.bootstrap);
    const uint64_t t0 = obs::NowNanos();
    for (std::size_t i = 0; i < events_ingested_; ++i) {
      const EdgeEvent& e = inputs_.stream[i];
      const Status st = e.kind == EdgeEvent::Kind::kInsert
                            ? g.AddEdge(e.edge.src, e.edge.dst)
                            : g.RemoveEdge(e.edge.src, e.edge.dst);
      if (!st.ok()) result_.Check(false, "standalone DiGraph replay failed");
    }
    const uint64_t t1 = obs::NowNanos();
    spans_.Add("graph.DiGraph.mutate", t0, t1);
    result_.Set("graph.mutation_ns",
                static_cast<double>(t1 - t0) /
                    std::max<double>(1.0, static_cast<double>(events_ingested_)),
                "ns", events_ingested_);
  }

  /// A single-threaded flat engine over the same windows: the baseline
  /// the sharded pipeline's ingest rate is read against. Capped at ~3 s
  /// of ingest.
  void FlatBaseline() {
    Engine flat(BuildGraph(spec_.n, inputs_.bootstrap),
                EngineOptions(args_.seed));
    uint64_t events = 0;
    const uint64_t t0 = obs::NowNanos();
    uint64_t t1 = t0;
    for (const Window& w : windows_) {
      (void)flat.ApplyEvents(std::span<const EdgeEvent>(
          inputs_.stream.data() + w.begin, w.size));
      events += w.size;
      t1 = obs::NowNanos();
      if (t1 - t0 > 3'000'000'000ULL) break;
    }
    spans_.Add("core.flat_engine.ApplyEvents", t0, t1);
    result_.Set("core.flat_eps",
                static_cast<double>(events) / Seconds(std::max<uint64_t>(t1 - t0, 1)),
                "1/s", events);
  }

  const Spec& spec_;
  const Args& args_;
  SpanLog spans_;
  TmpDir tmp_;
  Inputs inputs_;
  Result result_;
  std::unique_ptr<Sharded> engine_;
  std::unique_ptr<Service> service_;
  uint64_t epoch0_ = 0;
  std::size_t num_edges_boot_ = 0;
  uint64_t events_ingested_ = 0;
  std::vector<Record> records_;
  std::vector<Window> windows_;
  std::vector<std::pair<uint64_t, uint64_t>> epoch_seen_;
};

// ---------------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--trace-out FILE]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--tmp") a.tmp = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else if (flag == "--stall-us") a.stall_us = std::stoull(v);
    else if (flag == "--rate-scale") a.rate_scale = std::stod(v);
    else Usage();
  }
  if (a.workload.empty() || a.tmp.empty() || a.seconds <= 0.0 ||
      a.rate_scale <= 0.0) {
    Usage();
  }
  return a;
}

void PrintReport(const Spec& spec, const Args& args, const Result& r) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::fprintf(stderr,
               "perfbench %s seed=%llu seconds=%g trace=%d | "
               "hardware_concurrency=%u llc_bytes=%ld n=%zu m=%zu "
               "window=%zu shards=%zu repair_threads=%zu tier_workers=%zu\n",
               spec.name, static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0,
               std::thread::hardware_concurrency(), llc, spec.n,
               spec.n * kOutDegree, spec.window, kShards, kRepairThreads,
               kTierWorkers);
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(stderr, "  %-38s %14.6g %-6s n=%-7zu %s\n", name.c_str(),
                 m.value, m.unit.c_str(), m.samples, m.note.c_str());
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", f.c_str());
  }
}

void PrintJson(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Result r = spec->salsa
                       ? Workload<IncrementalSalsa>(*spec, args).Run()
                       : Workload<IncrementalPageRank>(*spec, args).Run();
  PrintReport(*spec, args, r);
  PrintJson(r);
  return r.correct ? 0 : 1;
}
