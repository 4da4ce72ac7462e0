#ifndef FASTPPR_ENGINE_QUERY_SERVICE_H_
#define FASTPPR_ENGINE_QUERY_SERVICE_H_

// Concurrent serving layer over a ShardedEngine (see DESIGN.md
// sections 4, 6 and 11).
//
// Every read is served from one published *view set*, built at a
// window boundary and flipped as a single pointer under the view mutex:
//  * the merged ranking counts — the S shards' RankingCount summed into
//    one int64 array plus its total, with a precomputed sorted prefix of
//    the kCountPrefix best (node, count) pairs;
//  * per-shard frozen walk segments and the frozen adjacency
//    (store/segment_snapshot.h), structurally shared with the previous
//    set, so a publish allocates only the window's delta.
// A reader pins the whole set with one shared_ptr copy (the mutex is
// held only across the pointer copy, never across a read or a walk).
// TopK(k) is then a copy of the first k prefix entries, Score(v) one
// array load, and PersonalizedTopK a walk stitched with plain loads.
// Readers never block ingestion, and a retired set — count array and
// unshared chunks — is freed at its last unpin.
//
// Publish pipelining: the service implements the engine's BoundarySink,
// so publishing is driven by window-boundary callbacks instead of the
// Ingest caller. In pipelined engine mode the callback runs on the
// pipeline thread; it sums the counts and captures the delta payloads
// (everything that must be read while the boundary is frozen) and hands
// prefix selection and assembly to a dedicated PUBLISHER thread —
// publish of window k-1 overlaps repair of window k and ingest of
// window k+1. In lockstep mode the callback runs inline: the count part
// flips at every boundary, while segment and adjacency refreshes stay
// demand-gated (a writer with no personalized readers skips them, and
// the new set shares the previous segment and adjacency pointers).
//
// Consistency model: every read observes ONE epoch (SnapshotInfo
// reports min_epoch == max_epoch). In pipelined mode counts, segments
// and adjacency always share that epoch, and reads trail ingestion by
// at most the pipeline plus the publish queue; Quiesce() is the
// freshness barrier. In lockstep mode counts are current at every
// boundary and the personalized views may trail them until a
// personalized read refreshes them.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fastppr/core/ppr_walker.h"
#include "fastppr/core/ranking.h"
#include "fastppr/engine/ingest_pipeline.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/types.h"
#include "fastppr/obs/engine_metrics.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/store/segment_snapshot.h"
#include "fastppr/store/shared_snapshot.h"
#include "fastppr/util/shard.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Which ingestion epochs a read combined. Every read is served from
/// one published view set, so min_epoch == max_epoch; personalized
/// reads audit it across the adjacency and every segment view.
struct SnapshotInfo {
  uint64_t min_epoch = 0;
  uint64_t max_epoch = 0;
};

/// Serving front door: ingest windows through Ingest(), read rankings
/// concurrently through TopK()/Score(), run personalized queries
/// concurrently through PersonalizedTopK(). `Engine` is
/// IncrementalPageRank (TopK/Score rank by PageRank visit counts,
/// PersonalizedTopK is Algorithm 1) or IncrementalSalsa (authority
/// counts / personalized SALSA).
///
/// Single-service contract: a QueryService owns its engine's snapshot
/// delta feeds (dirty segments, applied edges) and its window-boundary
/// sink; attach at most one service per engine, and route mutations
/// through Ingest() — callers that mutate the engine directly must call
/// Publish() (full snapshot rebuild) before the next read.
template <typename Engine>
class QueryService : private ShardedEngine<Engine>::BoundarySink {
  using Ctx = typename ShardedEngine<Engine>::BoundaryContext;
  /// Boundary→publisher queue depth (pipelined engine mode): how many
  /// captured-but-unassembled windows may stack up before window
  /// boundaries backpressure on the publisher.
  static constexpr std::size_t kPublishQueueCap = 4;
  struct FrozenViewSet;
  class FrozenSegmentView;
  /// The one personalized walker, over the pinned frozen views.
  using Walker = BasicPersonalizedWalker<typename Engine::WalkKind,
                                         FrozenSegmentView, FrozenAdjacency>;

 public:
  /// Length of the sorted (node, count) prefix every publish selects.
  /// Every service TopK in the repository (the serving tier's default,
  /// the benches and the perfbench workloads) asks for k <= 10; 128 is
  /// a margin above that, not a measured need. The margin is free:
  /// selecting 10, 128 or 256 of 300k counts is the same O(n) pass
  /// (~0.35 ms; 1024 costs ~0.47 ms), and the prefix is 2 KB per
  /// published set. A k past the prefix is still answered exactly, by a
  /// selection over the pinned count array.
  static constexpr std::size_t kCountPrefix = 128;

  /// Per-query walk statistics type (differs between the two engines).
  using WalkStats = typename Walker::Result;

  explicit QueryService(ShardedEngine<Engine>* engine)
      : engine_(engine),
        // SALSA walks step backwards: capture the in-side too.
        adj_builder_(/*capture_in=*/Engine::WalkKind::kDirections == 2) {
    FASTPPR_CHECK(engine_ != nullptr);
    om_ = engine_->metric_handles();
    engine_->EnableAppliedEdgeTracking();
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      engine_->shard(s).mutable_walk_store()->set_dirty_tracking(true);
    }
    const auto& store = engine_->shard(0).walk_store();
    walks_per_node_ = store.walks_per_node();
    epsilon_ = store.epsilon();
    // The dense global->local segment map (immutable for the service's
    // lifetime; shared by the per-shard builders and every reader).
    ownership_ = engine_->MakeSegmentOwnership();
    seg_builders_.reserve(engine_->num_shards());
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      seg_builders_.emplace_back(ownership_, s);
    }
    if (!engine_->lockstep()) {
      publisher_ = std::thread([this] { PublisherLoop(); });
    }
    engine_->SetBoundarySink(this);
    {
      std::lock_guard<std::mutex> lock(window_mu_);
      const Ctx ctx = engine_->QuiescentBoundaryContext();
      PublishBoundary(ctx, /*full=*/true);
    }
    // The ctor returns with a published view in place (readers CHECK
    // one exists).
    WaitPublisherIdle();
  }

  /// The engine outlives the service: detach the boundary sink and hand
  /// the delta feeds back so it stops paying for a serving layer that
  /// no longer exists.
  ~QueryService() override {
    Quiesce();
    engine_->SetBoundarySink(nullptr);
    publish_q_.Close();
    if (publisher_.joinable()) publisher_.join();
    engine_->DisableAppliedEdgeTracking();
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      auto* store = engine_->shard(s).mutable_walk_store();
      store->set_dirty_tracking(false);
      store->ClearDirtySegments();
    }
  }

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  ShardedEngine<Engine>* engine() { return engine_; }

  /// Applies one ingestion window; snapshots publish at the window
  /// boundary (inline in lockstep, downstream of the pipeline
  /// otherwise). On a failed event the applied prefix is still
  /// repaired and published.
  Status Ingest(std::span<const EdgeEvent> window) {
    std::lock_guard<std::mutex> lock(window_mu_);
    return engine_->ApplyEvents(window);
  }

  /// Re-publishes snapshots of the engine's current state (for callers
  /// that mutated the engine directly — the delta feeds may have missed
  /// those mutations, so the frozen views are fully rebuilt). Blocks
  /// until the rebuilt view is live.
  void Publish() {
    std::lock_guard<std::mutex> lock(window_mu_);
    const Ctx ctx = engine_->QuiescentBoundaryContext();
    PublishBoundary(ctx, /*full=*/true);
    WaitPublisherIdle();
  }

  /// The freshness barrier: blocks until every window submitted through
  /// Ingest() is fully applied AND its snapshot publishes are live.
  /// No-op cost in lockstep mode. (Differential tests compare states
  /// across engines at quiesced boundaries.)
  void Quiesce() {
    engine_->Drain();
    WaitPublisherIdle();
  }

  /// Epoch of the most recent window boundary (the published view set
  /// may trail it by the publish queue depth in pipelined mode).
  uint64_t published_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Aggregate structural-sharing publish accounting across every
  /// builder (all shards' segments + both adjacency sides). Read at a
  /// quiescent point (Quiesce()) for a consistent total;
  /// publish_delta_bytes() / presented_bytes is the
  /// publish_bytes_per_delta_byte contract bench_sharded enforces.
  snap::SharedPublishStats::Snapshot publish_volume() const {
    snap::SharedPublishStats::Snapshot total;
    for (const SegmentSnapshotBuilder& b : seg_builders_) {
      total.Accumulate(b.stats().Read());
    }
    total.Accumulate(adj_builder_.out_stats().Read());
    if (adj_builder_.capture_in()) {
      total.Accumulate(adj_builder_.in_stats().Read());
    }
    return total;
  }

  /// Memory accounting of the currently published frozen views (pins
  /// the view set briefly; safe concurrently with ingestion).
  /// `segment_rows_dense` sums every shard's owned rows — exactly one
  /// global table's worth across all shards; `segment_rows_global_model`
  /// is what the pre-dense layout carried (n * spn rows PER shard).
  struct FrozenViewStats {
    std::size_t segment_bytes = 0;           ///< all shards, current view
    std::size_t segment_row_table_bytes = 0;
    std::size_t segment_rows_dense = 0;
    std::size_t segment_rows_global_model = 0;
    std::size_t max_shard_segment_bytes = 0;
    std::size_t adjacency_bytes = 0;
  };
  FrozenViewStats FrozenStats() const {
    const Pin pin = PinView();
    const FrozenViewSet& set = *pin.set_;
    FrozenViewStats out;
    const std::size_t spn = set.ownership->segments_per_node();
    for (const auto& segs : set.segments) {
      out.segment_bytes += segs->MemoryBytes();
      out.segment_row_table_bytes += segs->row_table_bytes();
      out.segment_rows_dense += segs->num_segments();
      out.segment_rows_global_model += engine_->num_nodes() * spn;
      out.max_shard_segment_bytes =
          std::max(out.max_shard_segment_bytes, segs->MemoryBytes());
    }
    out.adjacency_bytes = set.graph->MemoryBytes();
    return out;
  }

  /// A reader's pin on the published view set. Everything it exposes
  /// comes from one boundary epoch, and the whole set (count array,
  /// segment chunks, adjacency) stays alive until the pin is destroyed.
  /// Pinning copies the published pointer under the view mutex;
  /// unpinning is a plain refcount drop, so whichever holder lets go
  /// last — a reader or the flip — frees a retired set, and never while
  /// holding the view mutex.
  class Pin {
   public:
    Pin(Pin&&) noexcept = default;
    Pin& operator=(Pin&&) noexcept = default;

    /// The boundary epoch the pinned counts were summed at.
    uint64_t epoch() const { return set_->counts->epoch; }
    SnapshotInfo info() const { return SnapshotInfo{epoch(), epoch()}; }
    /// Merged per-node counts (PageRank visits / SALSA authority
    /// visits) and their total.
    std::span<const int64_t> counts() const { return set_->counts->counts; }
    int64_t total() const { return set_->counts->total; }
    /// The sorted kCountPrefix-long (or n-long, if shorter) prefix.
    std::span<const CountedNode> prefix() const {
      return set_->counts->prefix;
    }

    /// The k best (node, count) pairs in ranking order: the prefix's
    /// first k entries, or for k past the prefix a selection over the
    /// pinned array into `spill`.
    std::span<const CountedNode> Top(std::size_t k,
                                     std::vector<CountedNode>* spill) const {
      const std::span<const CountedNode> head = prefix();
      if (k <= head.size() || head.size() == counts().size()) {
        return head.first(std::min(k, head.size()));
      }
      TopCountsInto(counts(), k, spill);
      return *spill;
    }

    /// Normalized score of v (visit frequency); v < num_nodes.
    double Score(NodeId v) const {
      return total() == 0 ? 0.0
                          : static_cast<double>(counts()[v]) /
                                static_cast<double>(total());
    }

   private:
    friend class QueryService;
    explicit Pin(std::shared_ptr<const FrozenViewSet> set)
        : set_(std::move(set)) {}

    std::shared_ptr<const FrozenViewSet> set_;
  };

  /// Pins the currently published view set (one mutex-guarded pointer
  /// copy; never blocks on ingestion or publishing).
  Pin PinView() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    FASTPPR_CHECK_MSG(frozen_view_ != nullptr,
                      "no published snapshot to serve from");
    return Pin(frozen_view_);
  }

  /// Copy of the published merged counts (tests; serving reads use the
  /// pinned array through TopK/Score/PinView).
  std::vector<int64_t> SnapshotCounts(int64_t* total = nullptr,
                                      SnapshotInfo* info = nullptr) const {
    const Pin pin = PinView();
    if (total != nullptr) *total = pin.total();
    if (info != nullptr) *info = pin.info();
    return std::vector<int64_t>(pin.counts().begin(), pin.counts().end());
  }

  /// Nodes with the k highest published counts (the engines' TopK
  /// ranking order): one pin plus a copy of the first k prefix entries.
  std::vector<NodeId> TopK(std::size_t k,
                           SnapshotInfo* info = nullptr) const {
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    std::vector<NodeId> out;
    {
      const Pin pin = PinView();
      std::vector<CountedNode> spill;
      const std::span<const CountedNode> top = pin.Top(k, &spill);
      out.reserve(top.size());
      for (const CountedNode& c : top) out.push_back(c.node);
      if (info != nullptr) *info = pin.info();
    }
    if (hot) om_.query_topk->Record(obs::NowNanos() - t0);
    return out;
  }

  /// TopK with each node's count and normalized score — the serving
  /// tier's stale-fallback answer, read from the same prefix.
  std::vector<ScoredNode> TopKScored(std::size_t k,
                                     SnapshotInfo* info = nullptr) const {
    const Pin pin = PinView();
    std::vector<CountedNode> spill;
    const std::span<const CountedNode> top = pin.Top(k, &spill);
    std::vector<ScoredNode> out;
    out.reserve(top.size());
    for (const CountedNode& c : top) {
      out.push_back(ScoredNode{c.node, c.count, pin.Score(c.node)});
    }
    if (info != nullptr) *info = pin.info();
    return out;
  }

  /// Normalized published score of one node (PageRank visit frequency /
  /// SALSA authority frequency): one pin plus one array load.
  double Score(NodeId v, SnapshotInfo* info = nullptr) const {
    FASTPPR_CHECK_MSG(v < engine_->num_nodes(), "Score: node out of range");
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    double score = 0.0;
    {
      const Pin pin = PinView();
      score = pin.Score(v);
      if (info != nullptr) *info = pin.info();
    }
    if (hot) om_.query_score->Record(obs::NowNanos() - t0);
    return score;
  }

  /// Personalized top-k (Algorithm 1 stitched walk; authority-ranked for
  /// SALSA), served from the frozen segment + adjacency views published
  /// at a window boundary. Runs concurrently with ingestion: the view
  /// mutex is held only across the shared_ptr pins, never across the
  /// walk, so readers never stall the writer and vice versa. The whole
  /// walk observes one epoch (`info`: min_epoch == max_epoch).
  Status PersonalizedTopK(NodeId seed, std::size_t k, uint64_t length,
                          bool exclude_friends, uint64_t rng_seed,
                          std::vector<ScoredNode>* ranked,
                          WalkStats* walk_stats = nullptr,
                          SnapshotInfo* info = nullptr) {
    return PersonalizedTopK(seed, k, length, exclude_friends, rng_seed,
                            WalkerOptions(), ranked, walk_stats, info);
  }

  /// PersonalizedTopK with explicit walker options — the serving tier's
  /// entry point: `options.deadline` is polled inside the walk
  /// accumulation loop (cooperative cancellation), so an expired
  /// request returns DeadlineExceeded instead of burning walk budget;
  /// `options.max_fetches` remains the fetch-budget fault hook.
  Status PersonalizedTopK(NodeId seed, std::size_t k, uint64_t length,
                          bool exclude_friends, uint64_t rng_seed,
                          const WalkerOptions& options,
                          std::vector<ScoredNode>* ranked,
                          WalkStats* walk_stats = nullptr,
                          SnapshotInfo* info = nullptr) {
    // Fail fast before pinning views or arming a frozen refresh: a
    // request that is already dead must cost the service nothing.
    if (options.deadline.expired()) {
      return Status::DeadlineExceeded("deadline expired before walk start");
    }
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    if (hot) om_.snapshot_pins->Add(1, engine_->shard_of(seed));
    // Arm the next window boundary's frozen refresh (lockstep's demand
    // gate; pipelined publishes unconditionally, so the flag is inert).
    frozen_demand_.store(true, std::memory_order_relaxed);
    Pin pin = PinView();
    if (engine_->lockstep() &&
        pin.set_->graph->epoch() != published_epoch() &&
        window_mu_.try_lock()) {
      // Lockstep only: the view lags the engine (frozen publishes were
      // skipped while no personalized reads were in flight) and the
      // writer is idle, so this reader pays the refresh itself, then
      // re-pins — holding the window mutex across the rebuild, so a
      // writer arriving exactly now waits for it (the one
      // reader-stalls-writer exception; it needs an idle writer to
      // trigger, so it cannot recur under steady ingestion). If the
      // writer is mid-window instead, the stale view is served as-is
      // (stamped in `info`) and the demand flag freshens the next
      // boundary. The pipelined mode never takes this branch: views
      // refresh at every boundary, and transient lag is just the
      // pipeline depth.
      std::lock_guard<std::mutex> lock(window_mu_, std::adopt_lock);
      if (hot) om_.snapshot_refreshes->Add(1);
      const Ctx ctx = engine_->QuiescentBoundaryContext();
      PublishJob job;
      job.epoch = ctx.epoch;
      CaptureFrozen(ctx, /*full=*/false, &job);
      AssembleAndFlip(std::move(job));
      // The demand flag stays armed: clearing it here could erase a
      // demand another reader raised concurrently, letting the writer
      // skip a boundary it owed — the cost of leaving it set is at most
      // one redundant (delta, usually empty) publish.
      pin = PinView();
    }
    const FrozenViewSet& set = *pin.set_;
    if (info != nullptr) *info = FrozenInfo(set);
    const FrozenSegmentView view(&set.segments, set.ownership.get(),
                                 walks_per_node_, epsilon_);
    const Status status =
        Walker(&view, set.graph.get(), options)
            .TopK(seed, k, length, exclude_friends, rng_seed, ranked,
                  walk_stats);
    if (hot) om_.query_personalized->Record(obs::NowNanos() - t0);
    return status;
  }

  /// One request of a batched PersonalizedTopK execution: the inputs a
  /// caller fills plus the per-item outputs the batch run writes back.
  struct PersonalizedBatchQuery {
    // Inputs.
    NodeId seed = 0;
    std::size_t k = 10;
    uint64_t walk_length = 0;
    bool exclude_friends = true;
    uint64_t rng_seed = 0;
    WalkerOptions options;
    // Outputs.
    Status status = Status::OK();
    std::vector<ScoredNode> ranked;
    SnapshotInfo snapshot;
    uint64_t service_ns = 0;  ///< this item's walk+rank wall time
  };

  /// The reusable walker scratch batched execution shares across items
  /// (serve/batcher.h owns one per worker thread).
  using PersonalizedScratch = typename Walker::Scratch;

  /// Batched PersonalizedTopK: pins the frozen view ONCE for the whole
  /// batch — one shared_ptr copy and one audited SnapshotInfo instead of
  /// per-request pins — and accumulates every walk into `scratch`'s
  /// dense arrays. Each item keeps its own RNG seed, walk length and
  /// deadline, and the walk core + ranking are shared with the unbatched
  /// path, so every item's answer is bit-identical to an unbatched
  /// PersonalizedTopK at the same epoch (the differential test's
  /// contract). Item statuses are reported per item; the call itself
  /// cannot fail. The lockstep self-refresh branch is intentionally
  /// skipped: batching is a serving-tier feature and the tier runs
  /// pipelined, where views refresh at every boundary anyway.
  void PersonalizedTopKInto(std::span<PersonalizedBatchQuery> batch,
                            PersonalizedScratch* scratch,
                            serve::ClockFn clock = &obs::NowNanos) {
    if (batch.empty()) return;
    const bool hot = engine_->metrics_enabled();
    frozen_demand_.store(true, std::memory_order_relaxed);
    const Pin pin = PinView();
    const FrozenViewSet& set = *pin.set_;
    const SnapshotInfo si = FrozenInfo(set);
    const FrozenSegmentView view(&set.segments, set.ownership.get(),
                                 walks_per_node_, epsilon_);
    for (PersonalizedBatchQuery& q : batch) {
      q.snapshot = si;
      const uint64_t t0 = clock();
      if (q.options.deadline.expired()) {
        q.status =
            Status::DeadlineExceeded("deadline expired before walk start");
        q.service_ns = clock() - t0;
        continue;
      }
      q.status = Walker(&view, set.graph.get(), q.options)
                     .TopKInto(q.seed, q.k, q.walk_length, q.exclude_friends,
                               q.rng_seed, scratch, &q.ranked);
      q.service_ns = clock() - t0;
      if (hot) om_.query_personalized->Record(q.service_ns);
    }
    // One pin for the whole batch: account it to the first item's shard.
    if (hot) om_.snapshot_pins->Add(1, engine_->shard_of(batch[0].seed));
  }

  /// Epoch of the currently published frozen view — the result cache's
  /// key component. Read under the pin mutex, so it is exactly the epoch
  /// a PersonalizedTopK pinning "now" would serve (modulo a concurrent
  /// rotation, which only turns a would-be hit into a miss or a
  /// same-epoch insert — never a stale hit).
  uint64_t frozen_epoch() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    return frozen_view_ != nullptr ? frozen_view_->graph->epoch() : 0;
  }

 private:
  /// One boundary's merged ranking counts: the S shards' counts summed
  /// into one array, its total, and the sorted kCountPrefix prefix.
  struct CountSnapshot {
    uint64_t epoch = 0;
    int64_t total = 0;
    std::vector<int64_t> counts;
    std::vector<CountedNode> prefix;
  };

  /// One published view set: the merged counts, per-shard frozen
  /// segments (dense owned rows), the shared global->local map, plus the
  /// frozen adjacency — built once per publish and flipped as a single
  /// pointer — so a reader's pin/unpin is one shared_ptr copy, not S+3
  /// refcount bumps inside the contended critical section.
  struct FrozenViewSet {
    std::shared_ptr<const CountSnapshot> counts;
    std::vector<std::shared_ptr<const FrozenSegments>> segments;
    std::shared_ptr<const SegmentOwnership> ownership;
    std::shared_ptr<const FrozenAdjacency> graph;
  };

  /// One window's captured-but-unassembled publish payload, moved from
  /// the boundary thread to the publisher thread. A part left empty
  /// (null `counts`, `frozen` false) is shared from the current set.
  struct PublishJob {
    uint64_t epoch = 0;
    bool full = false;
    std::shared_ptr<CountSnapshot> counts;
    bool frozen = false;
    std::vector<snap::CapturedRows<uint64_t>> segments;
    AdjacencyCapture adjacency;
  };

  /// Audited, not assumed: min/max span the adjacency AND every segment
  /// view, so the single-epoch contract's assertions in the tests and
  /// bench actually bite if a publish ever flips them at different
  /// epochs.
  static SnapshotInfo FrozenInfo(const FrozenViewSet& set) {
    SnapshotInfo si{set.graph->epoch(), set.graph->epoch()};
    for (const auto& segs : set.segments) {
      si.min_epoch = std::min(si.min_epoch, segs->epoch());
      si.max_epoch = std::max(si.max_epoch, segs->epoch());
    }
    return si;
  }

  /// StoreView over the pinned frozen copies, routing each node's
  /// segments to its owning shard's dense table through the shared
  /// (immutable) SegmentOwnership map.
  class FrozenSegmentView {
   public:
    FrozenSegmentView(
        const std::vector<std::shared_ptr<const FrozenSegments>>* shards,
        const SegmentOwnership* ownership, std::size_t walks_per_node,
        double epsilon)
        : shards_(shards),
          ownership_(ownership),
          walks_per_node_(walks_per_node),
          epsilon_(epsilon) {}

    std::size_t walks_per_node() const { return walks_per_node_; }
    double epsilon() const { return epsilon_; }
    FrozenSegments::SegmentRef GetSegment(NodeId u, std::size_t k) const {
      return (*shards_)[ownership_->OwnerOf(u)]->Segment(
          ownership_->LocalRow(u, k));
    }

   private:
    const std::vector<std::shared_ptr<const FrozenSegments>>* shards_;
    const SegmentOwnership* ownership_;
    std::size_t walks_per_node_;
    double epsilon_;
  };

  /// The engine's window-boundary callback (BoundarySink): pipeline
  /// thread in pipelined mode, the Ingest caller in lockstep.
  void OnWindowBoundary(const Ctx& ctx) override {
    PublishBoundary(ctx, /*full=*/false);
  }

  /// One boundary's publish work on the boundary thread: sum the
  /// counts (every window), then capture the frozen-view delta — demand-
  /// gated in lockstep — and assemble inline (lockstep) or hand the job
  /// to the publisher thread.
  void PublishBoundary(const Ctx& ctx, bool full) {
    PublishJob job;
    job.epoch = ctx.epoch;
    job.full = full;
    job.counts = CaptureCounts(ctx);
    // Advance the published epoch BEFORE the flip: a reader that pins a
    // view must never observe its epoch ahead of published_epoch() (the
    // staleness invariant the tests assert).
    published_epoch_.store(ctx.epoch, std::memory_order_release);
    const bool lockstep = engine_->lockstep();
    // Demand-driven frozen refresh (lockstep only): the delta copies are
    // paid only when a personalized read happened since the last frozen
    // publish — a lockstep writer with no personalized readers flips
    // only the counts while the dirty feeds accumulate (bounded by their
    // overflow caps). The pipelined mode captures every boundary: the
    // assembly rides the publisher thread, off the ingest critical path.
    if (!lockstep || full ||
        frozen_demand_.exchange(false, std::memory_order_relaxed)) {
      CaptureFrozen(ctx, full, &job);
    }
    if (lockstep) {
      AssembleAndFlip(std::move(job));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      ++inflight_;
    }
    if (!publish_q_.Push(std::move(job))) {
      // Closed queue (service teardown) — the boundary is already past
      // the sink detach, so the job is dropped, not owed.
      std::lock_guard<std::mutex> lock(idle_mu_);
      --inflight_;
      idle_cv_.notify_all();
      return;
    }
    if (engine_->metrics_enabled()) {
      om_.pipeline_publish_queue_hw->Set(publish_q_.high_water());
    }
  }

  /// Sums the boundary-frozen shards' ranking counts into one fresh
  /// array in a single pass (n·S reads, n stores). Fresh, not recycled:
  /// pinned readers may still hold the previous arrays.
  std::shared_ptr<CountSnapshot> CaptureCounts(const Ctx& ctx) const {
    auto snap = std::make_shared<CountSnapshot>();
    snap->epoch = ctx.epoch;
    const std::size_t n = engine_->num_nodes();
    snap->counts.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      int64_t count = 0;
      for (const Engine* shard : ctx.shards) count += shard->RankingCount(v);
      snap->counts.push_back(count);
    }
    for (const Engine* shard : ctx.shards) snap->total += shard->RankingTotal();
    return snap;
  }

  /// Boundary-thread half of a frozen publish: reads the
  /// boundary-frozen stores and graph into a self-contained job and
  /// clears the delta feeds. Everything live is read HERE; the
  /// assembly half touches only builder/publish state.
  void CaptureFrozen(const Ctx& ctx, bool full, PublishJob* job) {
    const bool hot = engine_->metrics_enabled();
    const uint64_t graph_epoch = ctx.graph->epoch();
    job->frozen = true;
    job->segments.resize(seg_builders_.size());
    for (std::size_t s = 0; s < seg_builders_.size(); ++s) {
      auto* store = ctx.shards[s]->mutable_walk_store();
      if (hot) {
        om_.segments_dirtied->Add(store->dirty_segments().size(), s);
      }
      seg_builders_[s].Capture(*store, store->dirty_segments(),
                               full || store->dirty_overflowed(),
                               &job->segments[s]);
      store->ClearDirtySegments();
    }
    adj_builder_.Capture(*ctx.graph, ctx.applied->entries(),
                         full || ctx.applied->overflowed(),
                         &job->adjacency);
    ctx.applied->Clear();
    // The single-writer contract, checked like the engine's repair
    // phases: the boundary graph must not have moved while we copied
    // from it (in pipelined mode the PRIMARY may move freely — the
    // capture reads the repair replica).
    FASTPPR_CHECK_MSG(ctx.graph->epoch() == graph_epoch,
                      "graph mutated during a snapshot capture");
  }

  /// Publisher half: select the count prefix, fold the capture into the
  /// shared chains and flip the view pointer. Runs on the publisher
  /// thread in pipelined mode (overlapping the next windows' ingest and
  /// repair), inline on the boundary thread in lockstep.
  void AssembleAndFlip(PublishJob&& job) {
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    // Parts the job left empty are shared from the current set (only
    // this thread flips, so it cannot change under us).
    Pin prev(nullptr);
    if (job.counts == nullptr || !job.frozen) prev = PinView();
    auto fresh = std::make_shared<FrozenViewSet>();
    if (job.counts != nullptr) {
      TopCountsInto(job.counts->counts, kCountPrefix, &job.counts->prefix);
      fresh->counts = std::move(job.counts);
    } else {
      fresh->counts = prev.set_->counts;
    }
    if (job.frozen) {
      fresh->segments.resize(job.segments.size());
      for (std::size_t s = 0; s < job.segments.size(); ++s) {
        fresh->segments[s] = seg_builders_[s].Assemble(
            std::move(job.segments[s]), job.epoch);
      }
      fresh->ownership = ownership_;
      fresh->graph =
          adj_builder_.Assemble(std::move(job.adjacency), job.epoch);
    } else {
      fresh->segments = prev.set_->segments;
      fresh->ownership = prev.set_->ownership;
      fresh->graph = prev.set_->graph;
    }
    std::shared_ptr<const FrozenViewSet> retired;
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      retired = std::exchange(frozen_view_, std::move(fresh));
    }
    // If no reader pins it, the retired set is freed here, off the lock.
    retired.reset();
    if (hot) {
      // "full" here means the caller forced a rebuild; per-shard
      // overflow-forced copies still count as delta publishes (the
      // decision was the delta path's). Count-only flips are neither.
      if (job.frozen) {
        (job.full ? om_.frozen_publishes_full : om_.frozen_publishes_delta)
            ->Add(1);
      }
      const uint64_t t1 = obs::NowNanos();
      om_.publish_phase->Record(t1 - t0);
      engine_->phase_tracer()->Record(engine_->publish_track(),
                                      obs::Phase::kPublish, job.epoch, t0,
                                      t1);
    }
  }

  void PublisherLoop() {
    PublishJob job;
    while (publish_q_.Pop(&job)) {
      AssembleAndFlip(std::move(job));
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        --inflight_;
      }
      idle_cv_.notify_all();
    }
  }

  void WaitPublisherIdle() {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] { return inflight_ == 0; });
  }

  ShardedEngine<Engine>* engine_;
  /// Cached metric handles (obs/engine_metrics.h); owned by the
  /// engine's registry, which outlives the service.
  obs::EngineMetrics om_;
  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.0;
  std::shared_ptr<const SegmentOwnership> ownership_;
  std::mutex window_mu_;
  std::atomic<uint64_t> published_epoch_{0};

  /// Personalized-read state. `view_mu_` orders only pointer pins and
  /// flips; the builders are touched only by the boundary thread
  /// (Capture) and the publisher thread (Assemble), whose member
  /// footprints are disjoint.
  mutable std::mutex view_mu_;
  std::atomic<bool> frozen_demand_{false};
  std::shared_ptr<const FrozenViewSet> frozen_view_;
  std::vector<SegmentSnapshotBuilder> seg_builders_;
  AdjacencySnapshotBuilder adj_builder_;

  /// Publisher-thread state (pipelined engine mode only; the thread is
  /// never started in lockstep). `inflight_` counts enqueued jobs not
  /// yet flipped, guarded by `idle_mu_`.
  pipe::BoundedQueue<PublishJob> publish_q_{kPublishQueueCap};
  std::thread publisher_;
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::size_t inflight_ = 0;
};

}  // namespace fastppr

#endif  // FASTPPR_ENGINE_QUERY_SERVICE_H_
