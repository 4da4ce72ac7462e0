#ifndef FASTPPR_CORE_INCREMENTAL_ENGINE_H_
#define FASTPPR_CORE_INCREMENTAL_ENGINE_H_

#include <array>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/social_store.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Configuration for the Monte Carlo engines.
struct MonteCarloOptions {
  /// R: stored walk segments per node (2R total for SALSA). Theorem 1
  /// gives sharp concentration already at R = 1; Section 3 wants
  /// R > q ln n for the personalized fetch bounds.
  std::size_t walks_per_node = 10;
  /// Reset probability. The paper's experiments use 0.2.
  double epsilon = 0.2;
  /// Segment repair strategy (Section 2.2 offers both; see UpdatePolicy).
  /// PageRank only; the SALSA engine always reroutes from the visit.
  UpdatePolicy update_policy = UpdatePolicy::kRerouteFromVisit;
  uint64_t seed = 42;
  /// Sharded deployment (engine/sharded_engine.h): the engine stores walk
  /// segments only for source nodes in shard `shard_index` of
  /// `shard_count` (partitioned by ShardOfNode). The default 0-of-1 is
  /// the flat, unsharded engine owning every node.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
};

/// The paper's incremental Monte Carlo system: a SocialStore holding the
/// evolving follow graph plus a BasicWalkStore<Kind> holding the walk
/// segments, kept consistent on every edge arrival and departure.
/// PageRankWalk gives Section 2's engine (O(nR ln m / eps^2) total work
/// under random-order arrivals, Theorem 4); SalsaWalk gives Section
/// 2.3's (2R alternating segments per node, 16 nR ln m / eps^2, Theorem
/// 6). Use the IncrementalPageRank / IncrementalSalsa aliases.
template <typename Kind>
class IncrementalEngine {
  static constexpr bool kIsPageRank = std::same_as<Kind, PageRankWalk>;
  static constexpr bool kIsSalsa = std::same_as<Kind, SalsaWalk>;

 public:
  using WalkKind = Kind;
  using Store = BasicWalkStore<Kind>;

  /// An engine over an initially empty graph with `num_nodes` nodes.
  IncrementalEngine(std::size_t num_nodes, const MonteCarloOptions& opts);

  /// An engine bootstrapped from an existing graph (copies the edges; the
  /// initialization cost is the segment-generation cost).
  IncrementalEngine(const DiGraph& initial, const MonteCarloOptions& opts);

  /// Shared-store deployment (engine/sharded_engine.h): attaches to an
  /// externally owned Social Store instead of creating a private one.
  /// Walk segments are generated from the store's current graph. The
  /// caller owns the mutation schedule: graph mutations and this
  /// engine's Repair* calls must never overlap (the single-writer epoch
  /// contract; see DESIGN.md section 5).
  IncrementalEngine(std::shared_ptr<SocialStore> social,
                    const MonteCarloOptions& opts);

  /// Recovery construction (store/checkpoint.h): attaches to the store
  /// WITHOUT generating walk segments — the caller's LoadFrom replaces
  /// every member immediately, so the generation cost would be pure
  /// waste. Useless outside recovery: the store starts empty.
  struct ForRecovery {};
  IncrementalEngine(ForRecovery, std::shared_ptr<SocialStore> social,
                    const MonteCarloOptions& opts);

  const MonteCarloOptions& options() const { return options_; }
  std::size_t num_nodes() const { return social_->num_nodes(); }
  std::size_t num_edges() const { return social_->num_edges(); }

  /// Adds the edge to the Social Store and repairs the affected walk
  /// segments. Returns the error of the underlying graph mutation if the
  /// edge is invalid; the stats of the repair are in last_event_stats().
  Status AddEdge(NodeId src, NodeId dst);

  /// Removes the edge and repairs the affected segments.
  Status RemoveEdge(NodeId src, NodeId dst);

  Status ApplyEvent(const EdgeEvent& event);

  /// Batched ingestion: applies the events in order, amortizing RNG and
  /// index maintenance across runs of same-kind events. Consecutive
  /// same-kind events are mutated into the Social Store together, grouped
  /// by pivot node, and repaired with one Binomial draw per
  /// (pivot, degree-change) group — distributionally identical to
  /// applying them one at a time, and bit-identical (same RNG stream) for
  /// a 1-event span. On a failed mutation the successfully applied prefix
  /// is repaired before the error is returned. last_event_stats() holds
  /// the accumulated stats of the whole batch afterwards.
  Status ApplyEvents(std::span<const EdgeEvent> events);

  /// Repair-only API for shared-store deployments: the orchestrator has
  /// already applied the chunk's mutations to the shared Social Store;
  /// repair this engine's walks against the (now frozen) graph.
  /// last_event_stats() accumulates every Repair* call since the last
  /// BeginRepairWindow(). Consumes the identical RNG stream as the
  /// owning-store ApplyEvents path on the same chunk sequence.
  void BeginRepairWindow() { last_stats_ = WalkUpdateStats{}; }
  void RepairEdgesInserted(std::span<const Edge> edges);
  void RepairEdgesRemoved(std::span<const Edge> edges);

  /// pi~_v with the paper's nR/eps normalization (Theorem 1).
  double Estimate(NodeId v) const
    requires kIsPageRank
  {
    return walks_.Estimate(v);
  }
  /// Visit-frequency estimate; sums to 1 and matches the power-iteration
  /// baseline exactly in expectation (dangling handled as reset).
  double NormalizedEstimate(NodeId v) const
    requires kIsPageRank
  {
    return walks_.NormalizedEstimate(v);
  }
  std::vector<double> NormalizedEstimates() const
    requires kIsPageRank
  {
    return walks_.NormalizedEstimates();
  }
  /// Nodes with the k highest PageRank estimates, descending.
  std::vector<NodeId> TopK(std::size_t k) const
    requires kIsPageRank
  {
    return TopKByRanking(k);
  }

  /// Authority-side visit frequency (comparable to SalsaExact).
  double AuthorityEstimate(NodeId v) const
    requires kIsSalsa
  {
    return walks_.NormalizedAuthority(v);
  }
  double HubEstimate(NodeId v) const
    requires kIsSalsa
  {
    return walks_.NormalizedHub(v);
  }
  /// Nodes with the k highest authority estimates, descending.
  std::vector<NodeId> TopKAuthorities(std::size_t k) const
    requires kIsSalsa
  {
    return TopKByRanking(k);
  }

  /// Per-node count backing global ranking (PageRank: X_v; SALSA:
  /// authority-side visits — a recommender ranks by authority). In a
  /// sharded deployment each shard engine reports the visits of its
  /// owned walks only; the sharded engine merges across shards.
  int64_t RankingCount(NodeId v) const { return walks_.RankingVisits(v); }
  int64_t RankingTotal() const { return walks_.TotalRankingVisits(); }
  /// Shard-aware merge hook: adds this engine's per-node ranking counts
  /// into `acc` (must be sized num_nodes()).
  void AccumulateRankingCounts(std::vector<int64_t>* acc) const;

  /// Stats of the most recent AddEdge/RemoveEdge.
  const WalkUpdateStats& last_event_stats() const { return last_stats_; }
  /// Accumulated stats over the engine's lifetime.
  const WalkUpdateStats& lifetime_stats() const { return lifetime_stats_; }
  uint64_t arrivals() const { return arrivals_; }
  uint64_t removals() const { return removals_; }

  SocialStore& social_store() { return *social_; }
  const SocialStore& social_store() const { return *social_; }
  const Store& walk_store() const { return walks_; }
  /// Writer-side access for the snapshot publisher (dirty-feed draining).
  Store* mutable_walk_store() { return &walks_; }
  const DiGraph& graph() const { return social_->graph(); }

  /// Persists the engine (graph + walk segments) to `directory` as
  /// `graph.txt` (SNAP edge list) and `walks.bin` (binary snapshot), so a
  /// restart resumes incremental maintenance without re-initializing.
  Status SaveSnapshot(const std::string& directory) const
    requires kIsPageRank;

  /// Restores an engine saved by SaveSnapshot. The options' R and epsilon
  /// are taken from the snapshot; `opts.seed` seeds the post-restore
  /// update randomness. The node count is the snapshot's (its header is
  /// CRC-checked and must be backed by n·R segments in the body); an
  /// edge endpoint outside it is Corruption.
  static Status LoadSnapshot(const std::string& directory,
                             const MonteCarloOptions& opts,
                             std::unique_ptr<IncrementalEngine>* engine)
    requires kIsPageRank;

  /// Test hook: full invariant audit.
  void CheckConsistency() const {
    walks_.CheckConsistency(social_->graph());
  }

  /// Engine-type tag stored in durable manifests (store/wal.h) so
  /// recovery can refuse to rehydrate a checkpoint into the wrong
  /// engine class.
  static constexpr uint8_t kPersistTag = Kind::kPersistTag;

  /// Durability hooks (DESIGN.md §8): this engine's private state — walk
  /// store, event-loop RNG, stats, arrival/removal counters. The shared
  /// SocialStore is serialized once by the owning ShardedEngine, not
  /// here.
  template <typename Sink>
  void SaveTo(Sink* w) const {
    walks_.SaveTo(w);
    w->Pod(rng_.State());
    w->Pod(last_stats_);
    w->Pod(lifetime_stats_);
    w->Pod(arrivals_);
    w->Pod(removals_);
  }
  template <typename Src>
  bool LoadFrom(Src* r) {
    std::array<uint64_t, 4> rng_state{};
    if (!walks_.LoadFrom(r) || !r->Pod(&rng_state) ||
        !r->Pod(&last_stats_) || !r->Pod(&lifetime_stats_) ||
        !r->Pod(&arrivals_) || !r->Pod(&removals_)) {
      return false;
    }
    rng_.SetState(rng_state);
    if (walks_.num_nodes() != social_->num_nodes()) {
      return r->Fail("walk store and social store disagree on node count");
    }
    return true;
  }

 private:
  std::vector<NodeId> TopKByRanking(std::size_t k) const;

  MonteCarloOptions options_;
  std::shared_ptr<SocialStore> social_;
  Store walks_;
  Rng rng_;
  WalkUpdateStats last_stats_;
  WalkUpdateStats lifetime_stats_;
  uint64_t arrivals_ = 0;
  uint64_t removals_ = 0;
  std::vector<Edge> chunk_scratch_;
};

extern template class IncrementalEngine<PageRankWalk>;
extern template class IncrementalEngine<SalsaWalk>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_INCREMENTAL_ENGINE_H_
