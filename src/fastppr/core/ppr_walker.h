#ifndef FASTPPR_CORE_PPR_WALKER_H_
#define FASTPPR_CORE_PPR_WALKER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fastppr/core/theory.h"
#include "fastppr/graph/types.h"
#include "fastppr/serve/deadline.h"
#include "fastppr/store/social_store.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/check.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// What one "fetch" to the walk database returns (Remark 1 of the paper).
enum class FetchMode {
  /// Default: all R stored segments plus the full adjacency list; manual
  /// steps after the segments are exhausted are then free.
  kSegmentsAndAllEdges,
  /// Memory-friendly variant: the first fetch returns the segments; every
  /// manual step costs one more fetch (for one sampled out-edge). At most
  /// a factor-2 more fetches (Remark 1).
  kSegmentsAndOneEdge,
};

struct WalkerOptions {
  FetchMode fetch_mode = FetchMode::kSegmentsAndAllEdges;
  /// 0 = unlimited. Otherwise the walk aborts with ResourceExhausted once
  /// the fetch budget is spent (failure-injection hook for tests).
  uint64_t max_fetches = 0;
  /// Cooperative cancellation: the accumulation loop polls
  /// `deadline.expired()` and aborts with DeadlineExceeded instead of
  /// burning budget on a request nobody is waiting for. Default:
  /// infinite, which reads no clock (has_deadline() is a plain compare).
  serve::Deadline deadline = serve::Deadline::Infinite();
  /// Appended positions between deadline polls (amortizes the clock
  /// read; 0 reads as 1). The default bounds overrun to a few µs.
  uint64_t deadline_check_stride = 256;
};

/// Cost counters of one stitched personalized walk (both walk kinds).
struct WalkCounters {
  uint64_t length = 0;         ///< total positions appended
  uint64_t fetches = 0;        ///< calls to the walk database (Figure 6)
  uint64_t segments_used = 0;  ///< stored segments consumed
  uint64_t manual_steps = 0;   ///< steps taken after segments ran out
  uint64_t resets = 0;         ///< jumps back to the seed
};

using VisitCounts = std::unordered_map<NodeId, int64_t>;

/// Outcome of one stitched personalized PageRank walk.
struct PersonalizedWalkResult : WalkCounters {
  /// Visits per node over the whole walk (the seed's resets included).
  VisitCounts visit_counts;
  VisitCounts& counts(uint32_t /*dir*/) { return visit_counts; }
};

/// Outcome of one stitched personalized SALSA walk. Hub-side and
/// authority-side visits are tracked separately: a friend recommender
/// ranks by authority score (relevance), Section 1.1 of the paper.
struct SalsaWalkResult : WalkCounters {
  VisitCounts hub_counts;        ///< positions about to step forward
  VisitCounts authority_counts;  ///< positions about to step backward
  VisitCounts& counts(uint32_t dir) {
    return dir == 0 ? hub_counts : authority_counts;
  }
};

/// A ranked recommendation.
struct ScoredNode {
  NodeId node = kInvalidNode;
  int64_t visits = 0;
  double score = 0.0;  ///< visit frequency within the walk
};

/// Ranks visit counts into ScoredNodes: the k most-visited nodes not in
/// `exclude`, ordered by visits desc, node asc.
std::vector<ScoredNode> RankVisits(const VisitCounts& counts, std::size_t k,
                                   uint64_t walk_length,
                                   const std::vector<NodeId>& exclude);

/// Dense-array variant of RankVisits for the reusable walk scratch:
/// `touched` lists the live `counts` slots, `excluded` is a dense flag
/// array, `tmp` keeps its capacity across calls. Bit-identical to
/// RankVisits over the equivalent map: the comparator is a strict total
/// order over distinct nodes, so insertion order cannot leak out.
void RankVisitsDenseInto(const std::vector<int64_t>& counts,
                         const std::vector<NodeId>& touched,
                         const std::vector<uint8_t>& excluded, std::size_t k,
                         uint64_t walk_length, std::vector<ScoredNode>* tmp,
                         std::vector<ScoredNode>* ranked);

/// Reusable per-thread scratch for batched TopKInto execution: dense
/// arrays (one count and one consumed-segment array per step direction;
/// 13 B/node for PageRank) allocated once and reset in O(nodes touched)
/// between walks. A walk that aborts mid-way (deadline, fetch budget)
/// leaves them dirty; Prepare() runs at the start of every use and
/// self-heals from the touched lists.
template <typename Kind>
struct PersonalizedWalkScratch {
  static constexpr uint32_t kDirs = Kind::kDirections;
  /// consumed[0][v] == kNotFetched means v has not been fetched this
  /// walk (the fetch gate of every kind); otherwise consumed[d][v] holds
  /// the number of direction-d stored segments consumed at v. Only
  /// fetched nodes are ever written, so `fetched` resets every slot.
  static constexpr uint32_t kNotFetched = 0xFFFFFFFFu;

  std::array<std::vector<int64_t>, kDirs> counts;  ///< live iff visited
  std::array<std::vector<NodeId>, kDirs> visited;  ///< first-visit order
  std::array<std::vector<uint32_t>, kDirs> consumed;
  std::vector<NodeId> fetched;    ///< nodes with consumed[0] != kNotFetched
  std::vector<uint8_t> excluded;  ///< dense exclusion flags for ranking
  std::vector<NodeId> excluded_nodes;
  std::vector<ScoredNode> ranked_tmp;

  void Prepare(std::size_t num_nodes) {
    if (excluded.size() != num_nodes) {
      for (uint32_t d = 0; d < kDirs; ++d) {
        counts[d].assign(num_nodes, 0);
        consumed[d].assign(num_nodes, d == 0 ? kNotFetched : 0);
      }
      excluded.assign(num_nodes, 0);
    } else {
      for (uint32_t d = 0; d < kDirs; ++d) {
        for (NodeId v : visited[d]) counts[d][v] = 0;
        for (NodeId v : fetched) consumed[d][v] = d == 0 ? kNotFetched : 0;
      }
      for (NodeId v : excluded_nodes) excluded[v] = 0;
    }
    for (auto& list : visited) list.clear();
    fetched.clear();
    excluded_nodes.clear();
  }

  void MarkExcluded(NodeId v) {
    if (!excluded[v]) excluded_nodes.push_back(v);
    excluded[v] = 1;
  }
};

/// Algorithm 1 of the paper and its SALSA variant (Section 2.3): a
/// personalized walk from a seed that consumes the stored segments (one
/// use each) and falls back to manual steps on the fetched adjacency
/// afterwards. The walk kinds (store/walk_store.h) differ in directions
/// (PageRank's is the constant 0, so its loop has no direction branch;
/// SALSA alternates forward/hub and backward/authority, and resets only
/// before forward steps), in the segment slot (`dir * R + consumed`) and
/// in the counter TopK ranks (Kind::kRankingDirection). A node without an
/// edge in the step direction ends the session like a reset.
///
/// `StoreView` is where the segments live (a flat walk store, a sharded
/// view routing GetSegment(u, k) to u's shard, or a frozen snapshot
/// view): walks_per_node(), epsilon(), GetSegment(node, k). `GraphView`
/// is the adjacency (the live DiGraph — safe only while the graph epoch
/// is frozen — or a FrozenAdjacency, WITH its in-side for SALSA):
/// num_nodes(), Out/InDegree, OutNeighbors and RandomOut/InNeighbor with
/// DiGraph's sampling semantics (only SALSA steps backwards).
///
/// Distribution note: when an unused stored segment exists at the walk
/// head, its tail is appended and the walk then resets to the seed — the
/// stored segment already embodies the geometric reset draw, so no separate
/// beta draw is made (this is distribution-identical to the paper's
/// pseudocode and avoids biasing zero-length segments; see DESIGN.md).
template <typename Kind, typename StoreView, typename GraphView = DiGraph>
class BasicPersonalizedWalker {
  static constexpr uint32_t kDirs = Kind::kDirections;
  static_assert(kDirs == 1 || kDirs == 2);

 public:
  using Result = std::conditional_t<kDirs == 1, PersonalizedWalkResult,
                                    SalsaWalkResult>;
  using Scratch = PersonalizedWalkScratch<Kind>;

  BasicPersonalizedWalker(const StoreView* store, const GraphView* graph,
                          WalkerOptions options = WalkerOptions())
      : store_(store), graph_(graph), options_(options) {
    FASTPPR_CHECK(store_ != nullptr && graph_ != nullptr);
  }

  /// Flat deployment: walks the social store's (uncounted) graph replica.
  BasicPersonalizedWalker(const StoreView* store, const SocialStore* social,
                          WalkerOptions options = WalkerOptions())
    requires std::same_as<GraphView, DiGraph>
      : BasicPersonalizedWalker(
            store, social != nullptr ? &social->graph() : nullptr, options) {}

  /// Runs a stitched walk of (at least) `length` positions from `seed`.
  Status Walk(NodeId seed, uint64_t length, uint64_t rng_seed,
              Result* out) const {
    MapWalkState state{out, {}};
    return WalkCore(seed, length, rng_seed, state, out);
  }

  /// The k most-visited nodes (in the kind's ranking direction) of a
  /// stitched walk, excluding the seed and (optionally) its out-neighbours:
  /// a recommender never recommends existing friends (Remark 3).
  Status TopK(NodeId seed, std::size_t k, uint64_t length,
              bool exclude_friends, uint64_t rng_seed,
              std::vector<ScoredNode>* ranked,
              Result* walk_stats = nullptr) const {
    Result walk;
    FASTPPR_RETURN_IF_ERROR(Walk(seed, length, rng_seed, &walk));
    std::vector<NodeId> exclude{seed};
    if (exclude_friends) {
      for (NodeId v : graph_->OutNeighbors(seed)) exclude.push_back(v);
    }
    *ranked = RankVisits(walk.counts(Kind::kRankingDirection), k,
                         walk.length, exclude);
    if (walk_stats != nullptr) *walk_stats = std::move(walk);
    return Status::OK();
  }

  /// TopK accumulating into a reusable dense scratch instead of per-walk
  /// hash maps. WalkCore and the total-order ranking are shared with
  /// TopK(), so the output is bit-identical to it at the same (seed,
  /// length, rng_seed) — the batched-vs-unbatched differential tests'
  /// contract. `walk_stats` gets the counters; its visit maps stay empty.
  Status TopKInto(NodeId seed, std::size_t k, uint64_t length,
                  bool exclude_friends, uint64_t rng_seed, Scratch* scratch,
                  std::vector<ScoredNode>* ranked,
                  Result* walk_stats = nullptr) const {
    FASTPPR_CHECK(scratch != nullptr && ranked != nullptr);
    scratch->Prepare(graph_->num_nodes());
    Result local;
    Result* stats = walk_stats != nullptr ? walk_stats : &local;
    DenseWalkState state{scratch};
    FASTPPR_RETURN_IF_ERROR(WalkCore(seed, length, rng_seed, state, stats));
    scratch->MarkExcluded(seed);
    if (exclude_friends) {
      for (NodeId v : graph_->OutNeighbors(seed)) scratch->MarkExcluded(v);
    }
    constexpr uint32_t kRank = Kind::kRankingDirection;
    RankVisitsDenseInto(scratch->counts[kRank], scratch->visited[kRank],
                        scratch->excluded, k, stats->length,
                        &scratch->ranked_tmp, ranked);
    return Status::OK();
  }

  /// TopK with the walk length chosen by equation (4) of the paper:
  /// s_k = (c/(1-alpha)) * k * (n/k)^{1-alpha}, the length at which each
  /// of the true top-k nodes is expected to be visited `c` times under
  /// the power-law score model with exponent `alpha`.
  Status TopKWithTheoryLength(NodeId seed, std::size_t k, double alpha,
                              double c, bool exclude_friends,
                              uint64_t rng_seed,
                              std::vector<ScoredNode>* ranked,
                              Result* walk_stats = nullptr) const {
    if (!(alpha > 0.0 && alpha < 1.0)) {
      return Status::InvalidArgument("alpha must be in (0, 1)");
    }
    if (k == 0) return Status::InvalidArgument("k must be positive");
    const double s = WalkLengthForTopK(k, graph_->num_nodes(), alpha, c);
    const uint64_t length =
        static_cast<uint64_t>(std::llround(std::max(1.0, s)));
    return TopK(seed, k, length, exclude_friends, rng_seed, ranked,
                walk_stats);
  }

 private:
  /// Accumulation policies for WalkCore: the map state (the unbatched
  /// path, the reference batched answers are compared against) and the
  /// dense state (a PersonalizedWalkScratch). Both expose:
  ///   Visit(v, dir)        — count one appended position at v
  ///   FindUsed(v, dir)     — consumed-segment slot, nullptr if not fetched
  ///   MarkFetched(v, dir)  — create v's slots at 0 (after the fetch charge)
  struct MapWalkState {
    Result* out;
    std::unordered_map<NodeId, std::array<uint32_t, kDirs>> consumed;
    void Visit(NodeId v, uint32_t dir) { ++out->counts(dir)[v]; }
    uint32_t* FindUsed(NodeId v, uint32_t dir) {
      auto it = consumed.find(v);
      return it == consumed.end() ? nullptr : &it->second[dir];
    }
    uint32_t* MarkFetched(NodeId v, uint32_t dir) {
      return &consumed.try_emplace(v).first->second[dir];
    }
  };

  struct DenseWalkState {
    Scratch* s;
    void Visit(NodeId v, uint32_t dir) {
      std::vector<int64_t>& counts = s->counts[dir];
      if (counts[v] == 0) s->visited[dir].push_back(v);
      ++counts[v];
    }
    uint32_t* FindUsed(NodeId v, uint32_t dir) {
      return s->consumed[0][v] == Scratch::kNotFetched ? nullptr
                                                       : &s->consumed[dir][v];
    }
    uint32_t* MarkFetched(NodeId v, uint32_t dir) {
      s->consumed[0][v] = 0;
      s->fetched.push_back(v);
      return &s->consumed[dir][v];
    }
  };

  /// Direction 0 steps forward (resets are drawn only before it); each
  /// step flips SALSA's direction, PageRank's stays the constant 0.
  static constexpr bool Forward(uint32_t d) { return kDirs == 1 || d == 0; }
  static constexpr uint32_t Flip(uint32_t d) { return kDirs == 1 ? 0 : d ^ 1; }

  /// The walk loop shared by both states: only the accumulation
  /// containers differ between them, so the RNG stream and every counter
  /// are identical across them by construction.
  template <typename State>
  Status WalkCore(NodeId seed, uint64_t length, uint64_t rng_seed,
                  State& state, Result* out) const {
    if (seed >= graph_->num_nodes()) {
      return Status::InvalidArgument("seed node out of range");
    }
    *out = Result{};
    // A request that arrives already expired does zero accumulation:
    // the serving tier counts it as deadline-expired, not served.
    const serve::Deadline& deadline = options_.deadline;
    if (deadline.expired()) {
      return Status::DeadlineExceeded("walk deadline expired");
    }
    const uint64_t stride =
        std::max<uint64_t>(options_.deadline_check_stride, 1);
    uint64_t next_deadline_poll = stride;
    Rng rng(rng_seed);
    const std::size_t R = store_->walks_per_node();
    const double eps = store_->epsilon();
    const GraphView& g = *graph_;

    // The walk head and its step direction (0 = forward, hub side).
    NodeId cur = seed;
    uint32_t dir = 0;
    auto visit = [&state, out](NodeId v, uint32_t d) {
      state.Visit(v, d);
      ++out->length;
    };
    auto charge_fetch = [this, out]() -> bool {
      ++out->fetches;
      return options_.max_fetches == 0 ||
             out->fetches <= options_.max_fetches;
    };
    auto reset_to_seed = [&]() {
      visit(seed, 0);
      ++out->resets;
      cur = seed;
      dir = 0;
    };

    visit(seed, 0);
    while (out->length < length) {
      // Cooperative cancellation, polled every `stride` appended
      // positions (segment tails advance length in bulk, so the poll
      // keys on length, not loop iterations).
      if (deadline.has_deadline() && out->length >= next_deadline_poll) {
        if (deadline.expired()) {
          return Status::DeadlineExceeded("walk deadline expired");
        }
        next_deadline_poll = out->length + stride;
      }
      uint32_t* consumed = state.FindUsed(cur, dir);
      if (consumed == nullptr) {
        // First arrival: fetch the node (its segments + adjacency).
        if (!charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
        consumed = state.MarkFetched(cur, dir);
      }
      if (*consumed < R) {
        // Consume one stored segment of the head's direction: append its
        // tail, then the session is over and the walk resets to the seed.
        const auto seg = store_->GetSegment(cur, dir * R + *consumed);
        ++*consumed;
        ++out->segments_used;
        uint32_t side = dir;
        for (std::size_t p = 1; p < seg.size() && out->length < length;
             ++p) {
          side = Flip(side);
          visit(seg.node(p), side);
        }
        if (out->length < length) reset_to_seed();
        continue;
      }
      // Segments exhausted at cur: manual simulation.
      if (Forward(dir) && rng.Bernoulli(eps)) {
        reset_to_seed();
        continue;
      }
      // In the one-edge mode each manual step costs one more fetch.
      if (options_.fetch_mode == FetchMode::kSegmentsAndOneEdge &&
          !charge_fetch()) {
        return Status::ResourceExhausted("fetch budget exhausted");
      }
      if ((Forward(dir) ? g.OutDegree(cur) : g.InDegree(cur)) == 0) {
        // Dangling: the session ends exactly like a reset.
        reset_to_seed();
        continue;
      }
      cur = Forward(dir) ? g.RandomOutNeighbor(cur, &rng)
                         : g.RandomInNeighbor(cur, &rng);
      dir = Flip(dir);
      ++out->manual_steps;
      visit(cur, dir);
    }
    return Status::OK();
  }

  const StoreView* store_;
  const GraphView* graph_;
  WalkerOptions options_;
};

/// The flat (single-store) PageRank walker.
using PersonalizedPageRankWalker =
    BasicPersonalizedWalker<PageRankWalk, WalkStore>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_PPR_WALKER_H_
