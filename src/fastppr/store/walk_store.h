#ifndef FASTPPR_STORE_WALK_STORE_H_
#define FASTPPR_STORE_WALK_STORE_H_

#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/repair_scratch.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/random.h"
#include "fastppr/util/shard.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Counters describing the cost of one incremental update, in the units the
/// paper's theorems are stated in.
struct WalkUpdateStats {
  /// Number of walk segments rerouted or extended (the paper's M_t).
  uint64_t segments_updated = 0;
  /// Number of fresh random-walk steps taken while re-simulating suffixes
  /// (each reroute costs ~1/epsilon of these; Theorem 4 bounds their total).
  uint64_t walk_steps = 0;
  /// 1 if the PageRank Store was actually called for this event (the
  /// 1-(1-1/d)^W gating of Section 2.2 decided the call was needed).
  uint64_t store_called = 0;
  /// Cheap index entries examined (deletion scans; reported separately
  /// because the paper's cost model does not charge for local scans).
  uint64_t entries_scanned = 0;

  void Accumulate(const WalkUpdateStats& other) {
    segments_updated += other.segments_updated;
    walk_steps += other.walk_steps;
    store_called += other.store_called;
    entries_scanned += other.entries_scanned;
  }
};
// Serialized raw by the engines' durability hooks: must stay padding-free.
static_assert(sizeof(WalkUpdateStats) == 4 * sizeof(uint64_t));

/// How an affected segment is repaired (Section 2.2: "we can redo the walk
/// starting at the updated node, or even more simply starting at the
/// corresponding source node").
enum class UpdatePolicy {
  /// Re-simulate only the suffix after the switched visit (exact: the
  /// resulting ensemble is distributed precisely as fresh new-graph
  /// walks, via the coupling argument).
  kRerouteFromVisit,
  /// Throw the whole affected segment away and regenerate it from its
  /// source (the paper's "even more simply" option, implemented for the
  /// switch/breakage repairs; dangling resumes are always handled exactly
  /// since their terminal visit already survived a reset draw).
  ///
  /// REPRODUCTION FINDING: this option is *not* distribution-preserving
  /// over long streams. A redo re-rolls the segment's reset draws, and a
  /// segment that comes out short (early reset) carries fewer step visits,
  /// so it is less likely to ever be selected for repair again —
  /// short-segment states are nearly absorbing, and over thousands of
  /// arrivals the stored ensemble drifts toward short walks (measurably
  /// inflated L1 error in the ablation bench). Use kRerouteFromVisit (the
  /// exact coupling) for production; this policy exists to quantify the
  /// paper's remark. PageRank-only.
  kRedoFromSource,
};

/// Direction of one walk step: along an out-edge or against an in-edge.
enum class WalkDirection : uint8_t { kForward, kBackward };

/// Walk kinds: the compile-time policy of BasicWalkStore and
/// IncrementalEngine (core/incremental_engine.h). A kind fixes how many
/// step directions a walk alternates through (each node stores R
/// segments per start direction), the segment end reasons, the engine's
/// RNG salt and durable tag, and the kind-specific parts of the
/// serialized layout. Everything else — slab layout, coupling repairs,
/// batching, persistence, audits — is one code path.
///
/// PageRank (Section 2): every step is forward; resets before each step.
struct PageRankWalk {
  static constexpr uint32_t kDirections = 1;
  /// Direction whose visit counter backs the global ranking (X_v).
  static constexpr uint32_t kRankingDirection = 0;
  /// The UpdatePolicy ablation exists (and is serialized) for PageRank.
  static constexpr bool kHasUpdatePolicy = true;
  static constexpr uint64_t kRngSalt = 0x1CEB00DAULL;
  static constexpr uint8_t kPersistTag = 1;
  enum class EndReason : uint8_t {
    kReset,     ///< the geometric reset fired
    kDangling,  ///< the tail node had no out-edge
  };
};

/// SALSA (Section 2.3): steps alternate forward/backward and resets are
/// drawn only before forward steps (mean segment length 2/eps). Each node
/// stores R forward-start segments (node in hub role) then R
/// backward-start segments (authority role). A position about to step
/// forward is hub-side, one about to step backward authority-side.
struct SalsaWalk {
  static constexpr uint32_t kDirections = 2;
  /// A recommender ranks by authority (backward-side) visits.
  static constexpr uint32_t kRankingDirection = 1;
  static constexpr bool kHasUpdatePolicy = false;
  static constexpr uint64_t kRngSalt = 0x5A15AULL;
  static constexpr uint8_t kPersistTag = 2;
  enum class EndReason : uint8_t {
    kReset,        ///< reset fired before a forward step
    kDanglingFwd,  ///< tail has no out-edge (forward step impossible)
    kDanglingBwd,  ///< tail has no in-edge (backward step impossible)
  };
};

/// The "PageRank Store" of Section 2 (and its SALSA twin of Section 2.3):
/// R random-walk segments per node and start direction, each continued
/// until its first epsilon-reset, plus inverted visit indexes so that the
/// segments crossing an updated node can be found and rerouted in time
/// proportional to the number that actually change.
///
/// Segment semantics (see DESIGN.md): a segment from u is [u, x1, ..., xT].
/// Before each forward step the walk stops with probability epsilon
/// ("reset"); it stops if the node has no edge in the step's direction
/// ("dangling exit", equivalent to a reset); otherwise it moves to a
/// uniformly random neighbour in that direction.
///
/// Storage layout (DESIGN.md): all path entries live in one flat slab
/// arena of packed 8-byte words (40-bit node, 24-bit index back-slot) with
/// per-segment offset/length spans; the step/dangling inverted indexes
/// (one pair per direction) are pooled flat rows of packed (40-bit
/// segment, 24-bit position) words with swap-remove semantics — no
/// per-segment or per-node heap vectors.
///
/// Incremental maintenance implements the coupling argument of
/// Proposition 2 exactly, at each pivot of an updated edge (u, v): u for
/// forward steps, and v for backward steps (SALSA only — one of the
/// factors behind Theorem 6's 16x constant):
///  * insert, new pivot degree d >= 2: every stored visit at the pivot
///    with a step in that direction independently switches its next hop
///    to the new neighbour with probability 1/d; switched suffixes are
///    re-simulated. Work is proportional to the number of switches
///    (sampled as a Binomial), not to the number of visits.
///  * insert, new pivot degree 1: every segment that terminated at the
///    pivot as dangling resumes through the new edge (this is where
///    Example 1's adversarial Omega(n) cost lives).
///  * delete: every stored step over the removed edge re-draws among the
///    remaining edges (visits at the pivot are scanned; scans are counted
///    separately).
///
/// Batched ingestion (OnEdgesInserted / OnEdgesRemoved) generalizes the
/// coupling to a group of same-kind events: edges are grouped by pivot,
/// the Binomial switch count is drawn once per (pivot, degree-change)
/// group — for a pivot going from degree d to D the per-visit switch
/// probability is (D-d)/D and a switched hop lands uniformly on the new
/// neighbours, which telescopes to exactly the sequential per-edge
/// coupling — and all switch/break decisions are collected before any
/// suffix is re-simulated so fresh (new-graph-distributed) suffixes are
/// never switched twice. Every planned segment is then truncated (and
/// its forced first hop drawn) before any suffix is extended; each
/// extension reads only the final graph. A 1-edge batch consumes the
/// identical RNG stream as the sequential OnEdgeInserted/OnEdgeRemoved,
/// which are thin wrappers.
template <typename Kind>
class BasicWalkStore {
  static constexpr uint32_t kDirs = Kind::kDirections;
  static_assert(kDirs == 1 || kDirs == 2);
  static constexpr bool kIsPageRank = std::same_as<Kind, PageRankWalk>;
  static constexpr bool kIsSalsa = std::same_as<Kind, SalsaWalk>;

 public:
  static constexpr uint32_t kNoSlot = slab::kNoLo;

  using EndReason = typename Kind::EndReason;
  using Direction = WalkDirection;

  /// Read-only view of one stored segment: a span over the packed entry
  /// arena. Invalidated by any mutating call on the store.
  class SegmentView {
   public:
    SegmentView(std::span<const uint64_t> words, EndReason end)
        : words_(words), end_(end) {}

    std::size_t size() const { return words_.size(); }
    bool empty() const { return words_.empty(); }
    /// Node visited at position `p`.
    NodeId node(std::size_t p) const {
      return static_cast<NodeId>(slab::Hi(words_[p]));
    }
    /// Inverted-index back-slot of position `p` (kNoSlot for an unindexed
    /// reset tail).
    uint32_t slot(std::size_t p) const { return slab::Lo(words_[p]); }
    EndReason end() const { return end_; }

   private:
    std::span<const uint64_t> words_;
    EndReason end_;
  };

  BasicWalkStore() = default;

  /// Generates R segments per node and start direction of `g`. Estimates
  /// are maintained incrementally afterwards via OnEdge(s)Inserted /
  /// OnEdge(s)Removed.
  ///
  /// Sharded mode (`shard_count` > 1): the store generates segments only
  /// for *owned* source nodes — those with ShardOfNode(u, shard_count) ==
  /// shard_index — leaving the other segment rows empty. Segment ids stay
  /// global (u * segments_per_node() + k), so GetSegment addressing is
  /// uniform across shards, and all repair paths are driven by the
  /// inverted indexes (which list only owned-walk visits), so the
  /// incremental update code is shard-oblivious. Visit counts then cover
  /// only the owned walks; the sharded engine merges them across shards.
  void Init(const DiGraph& g, std::size_t walks_per_node, double epsilon,
            uint64_t seed, uint32_t shard_index = 0,
            uint32_t shard_count = 1);

  /// True iff this store owns (stores the segments of) source node `u`.
  bool OwnsSource(NodeId u) const {
    return ShardOfNode(u, shard_count_) == shard_index_;
  }
  std::size_t owned_sources() const { return owned_sources_; }
  uint32_t shard_index() const { return shard_index_; }
  uint32_t shard_count() const { return shard_count_; }

  /// Selects the repair strategy (default kRerouteFromVisit).
  void set_update_policy(UpdatePolicy policy)
    requires Kind::kHasUpdatePolicy
  {
    policy_ = policy;
  }
  UpdatePolicy update_policy() const
    requires Kind::kHasUpdatePolicy
  {
    return policy_;
  }

  /// Rebuilds the store from externally supplied segment paths (the
  /// persistence layer, walk_store_io.h). Every hop is validated against
  /// `g`; the inverted index and counters are derived state and rebuilt
  /// here. Returns InvalidArgument/Corruption on any mismatch, leaving
  /// the store empty.
  Status InitFromSegments(const DiGraph& g, std::size_t walks_per_node,
                          double epsilon, uint64_t seed,
                          const std::vector<std::vector<NodeId>>& paths,
                          const std::vector<EndReason>& ends)
    requires kIsPageRank;

  std::size_t walks_per_node() const { return walks_per_node_; }
  double epsilon() const { return epsilon_; }
  std::size_t num_nodes() const { return visits_[0].size(); }
  std::size_t num_segments() const { return paths_.num_rows(); }

  /// Visits counted by the kind's global ranking (PageRank: all visits;
  /// SALSA: authority-side visits) and their total.
  int64_t RankingVisits(NodeId v) const {
    return visits_[Kind::kRankingDirection][v];
  }
  int64_t TotalRankingVisits() const {
    return totals_[Kind::kRankingDirection];
  }

  /// X_v: total visits to v across all stored segments.
  int64_t VisitCount(NodeId v) const
    requires kIsPageRank
  {
    return visits_[0][v];
  }
  int64_t TotalVisits() const
    requires kIsPageRank
  {
    return totals_[0];
  }

  /// The paper's estimator pi~_v = X_v / (nR/eps)  (Theorem 1).
  double Estimate(NodeId v) const
    requires kIsPageRank
  {
    return static_cast<double>(visits_[0][v]) /
           (static_cast<double>(num_nodes()) *
            static_cast<double>(walks_per_node_) / epsilon_);
  }
  /// X_v / total visits: sums to exactly 1 and matches the power-iteration
  /// baseline's dangling-to-reset semantics even on graphs with dangling
  /// nodes.
  double NormalizedEstimate(NodeId v) const
    requires kIsPageRank
  {
    return Normalized(0, v);
  }
  /// All normalized estimates (O(n)).
  std::vector<double> NormalizedEstimates() const
    requires kIsPageRank
  {
    std::vector<double> out(num_nodes());
    for (NodeId v = 0; v < out.size(); ++v) out[v] = Normalized(0, v);
    return out;
  }

  /// Number of stored-walk visits at v that have an outgoing step; this is
  /// the W(v) counter of Section 2.2 used for the store-call gating.
  std::size_t StepVisitCount(NodeId v) const
    requires kIsPageRank
  {
    return steps_[0].Size(v);
  }
  std::size_t DanglingCount(NodeId v) const
    requires kIsPageRank
  {
    return dangling_[0].Size(v);
  }

  int64_t HubVisits(NodeId v) const
    requires kIsSalsa
  {
    return visits_[0][v];
  }
  int64_t AuthorityVisits(NodeId v) const
    requires kIsSalsa
  {
    return visits_[1][v];
  }
  int64_t TotalHubVisits() const
    requires kIsSalsa
  {
    return totals_[0];
  }
  int64_t TotalAuthorityVisits() const
    requires kIsSalsa
  {
    return totals_[1];
  }
  /// Authority-side visit frequency (sums to 1 over all nodes).
  double NormalizedAuthority(NodeId v) const
    requires kIsSalsa
  {
    return Normalized(1, v);
  }
  /// Hub-side visit frequency (sums to 1 over all nodes).
  double NormalizedHub(NodeId v) const
    requires kIsSalsa
  {
    return Normalized(0, v);
  }

  /// Direction of the step taken at position `pos` of segment `seg`
  /// (terminal positions report the direction the step would have had).
  Direction StepDirection(uint64_t seg, uint32_t pos) const {
    return static_cast<Direction>(Dir(seg, pos));
  }

  /// Read access to the k-th stored segment of node u (k <
  /// segments_per_node(); for SALSA k < R is forward-start, [R, 2R)
  /// backward-start). The view is invalidated by any subsequent mutation.
  SegmentView GetSegment(NodeId u, std::size_t k) const {
    const uint64_t seg = SegId(u, k);
    return SegmentView(paths_.RowSpan(seg), End(seg));
  }

  /// Stored segment rows per node in the global segment-id addressing
  /// (SegId(u, k) = u * segments_per_node() + k): R per start direction.
  std::size_t segments_per_node() const { return kDirs * walks_per_node_; }

  /// Raw packed path words of segment `seg` — the segment-snapshot
  /// publisher's bulk-copy source (store/segment_snapshot.h).
  std::span<const uint64_t> SegmentWords(uint64_t seg) const {
    return paths_.RowSpan(seg);
  }

  /// Opt-in delta feed for frozen segment snapshots
  /// (store/segment_snapshot.h): while enabled, every repaired segment
  /// id is recorded (possibly more than once per window). Off by
  /// default so stores without a serving layer pay nothing.
  void set_dirty_tracking(bool on) { dirty_.SetTracking(on); }
  std::span<const uint64_t> dirty_segments() const {
    return dirty_.entries();
  }
  bool dirty_overflowed() const { return dirty_.overflowed(); }
  void ClearDirtySegments() { dirty_.Clear(); }

  /// Must be called after `g` already contains the new edge (u, v).
  /// `rng` drives the coupling randomness.
  WalkUpdateStats OnEdgeInserted(const DiGraph& g, NodeId u, NodeId v,
                                 Rng* rng) {
    const Edge e{u, v};
    return Repair(g, std::span<const Edge>(&e, 1), /*inserted=*/true, rng);
  }

  /// Must be called after the edge (u, v) has already been removed from
  /// `g`.
  WalkUpdateStats OnEdgeRemoved(const DiGraph& g, NodeId u, NodeId v,
                                Rng* rng) {
    const Edge e{u, v};
    return Repair(g, std::span<const Edge>(&e, 1), /*inserted=*/false, rng);
  }

  /// Batched insertion: `g` must already contain every edge of `edges`
  /// (and nothing else new). Edges are grouped by pivot; the switch count
  /// per group is one Binomial draw and all repairs are collected before
  /// any suffix is re-simulated. Distributionally identical to applying
  /// the edges one at a time; bit-identical to the sequential path for a
  /// 1-edge span.
  WalkUpdateStats OnEdgesInserted(const DiGraph& g,
                                  std::span<const Edge> edges, Rng* rng) {
    return Repair(g, edges, /*inserted=*/true, rng);
  }

  /// Batched removal twin: `g` must no longer contain any edge of `edges`.
  WalkUpdateStats OnEdgesRemoved(const DiGraph& g,
                                 std::span<const Edge> edges, Rng* rng) {
    return Repair(g, edges, /*inserted=*/false, rng);
  }

  /// Full invariant audit (index/backpointer/counter consistency and edge
  /// validity of every stored hop). O(n + total visits); test-only.
  /// Aborts via FASTPPR_CHECK on violation.
  void CheckConsistency(const DiGraph& g) const;

  /// Durability hooks (DESIGN.md §8): every behavior-bearing member
  /// verbatim — path/index slab pools (including dead words, so future
  /// relocation decisions replay identically), counters, and the
  /// store's RNG state. The transient repair scratch and the snapshot
  /// dirty feed are NOT state: they are empty at every phase boundary,
  /// where checkpoints are taken. The kind-specific columns are
  /// PageRank's UpdatePolicy byte and SALSA's forward-start column; the
  /// pools are written per direction (steps, then dangling, then visit
  /// counters, then totals).
  template <typename Sink>
  void SaveTo(Sink* w) const {
    w->Pod(static_cast<uint64_t>(walks_per_node_));
    w->Pod(epsilon_);
    if constexpr (Kind::kHasUpdatePolicy) {
      w->Pod(static_cast<uint8_t>(policy_));
    }
    w->Pod(rng_.State());
    w->Pod(shard_index_);
    w->Pod(shard_count_);
    w->Pod(static_cast<uint64_t>(owned_sources_));
    paths_.SaveTo(w);
    w->Vec(seg_end_);
    if constexpr (kDirs == 2) w->Vec(seg_fwd_);
    for (const slab::SlabPool& pool : steps_) pool.SaveTo(w);
    for (const slab::SlabPool& pool : dangling_) pool.SaveTo(w);
    for (const std::vector<int64_t>& counts : visits_) w->Vec(counts);
    for (const int64_t total : totals_) w->Pod(total);
  }

  /// Restores SaveTo state (the checkpoint path — raw trusted-by-CRC
  /// columns; the hop-revalidating logical snapshot path is
  /// store/walk_store_io.h). Returns false on any structural
  /// inconsistency; caller maps to Corruption.
  template <typename Src>
  bool LoadFrom(Src* r) {
    uint64_t wpn = 0, owned = 0;
    std::array<uint64_t, 4> rng_state{};
    if (!r->Pod(&wpn) || !r->Pod(&epsilon_)) return false;
    if constexpr (Kind::kHasUpdatePolicy) {
      uint8_t policy = 0;
      if (!r->Pod(&policy)) return false;
      if (policy > static_cast<uint8_t>(UpdatePolicy::kRedoFromSource)) {
        return r->Fail("bad update policy");
      }
      policy_ = static_cast<UpdatePolicy>(policy);
    }
    if (!r->Pod(&rng_state) || !r->Pod(&shard_index_) ||
        !r->Pod(&shard_count_) || !r->Pod(&owned)) {
      return false;
    }
    walks_per_node_ = static_cast<std::size_t>(wpn);
    owned_sources_ = static_cast<std::size_t>(owned);
    rng_.SetState(rng_state);
    if (!paths_.LoadFrom(r) || !r->Vec(&seg_end_)) return false;
    if constexpr (kDirs == 2) {
      if (!r->Vec(&seg_fwd_)) return false;
    }
    for (slab::SlabPool& pool : steps_) {
      if (!pool.LoadFrom(r)) return false;
    }
    for (slab::SlabPool& pool : dangling_) {
      if (!pool.LoadFrom(r)) return false;
    }
    for (std::vector<int64_t>& counts : visits_) {
      if (!r->Vec(&counts)) return false;
    }
    for (int64_t& total : totals_) {
      if (!r->Pod(&total)) return false;
    }
    const std::size_t n = num_nodes();
    bool ok = seg_end_.size() == paths_.num_rows() &&
              paths_.num_rows() == n * segments_per_node() &&
              (kDirs == 1 || seg_fwd_.size() == paths_.num_rows());
    for (uint32_t d = 0; d < kDirs; ++d) {
      ok = ok && steps_[d].num_rows() == n && dangling_[d].num_rows() == n &&
           visits_[d].size() == n;
    }
    if (!ok) return r->Fail("walk store tables disagree on geometry");
    // Re-size the transient repair machinery that Init() would normally
    // set up; a recovered store skips Init entirely.
    scratch_.ResetSegments(paths_.num_rows());
    dirty_.ResetCap(slab::DirtyCapForOwnedRows(paths_));
    dirty_.Clear();
    return true;
  }

 private:
  uint64_t SegId(NodeId u, std::size_t k) const {
    return static_cast<uint64_t>(u) * segments_per_node() + k;
  }

  /// Direction index (0 forward, 1 backward) of the step at (seg, pos).
  /// PageRank's is the constant 0, so its loops carry no direction
  /// branch. SALSA's forward-start bit is stored, not derived: a modulo
  /// by 2R here would cost a hardware divide per walk step.
  uint32_t Dir(uint64_t seg, uint32_t pos) const {
    if constexpr (kDirs == 1) {
      return 0;
    } else {
      return ((pos & 1) == 0) == (seg_fwd_[seg] != 0) ? 0 : 1;
    }
  }
  /// End reason of a walk that dangles before a step in direction `dir`.
  static uint8_t DanglingEnd(uint32_t dir) {
    return static_cast<uint8_t>(1 + dir);
  }
  static bool Forward(uint32_t dir) { return kDirs == 1 || dir == 0; }
  static std::size_t Degree(const DiGraph& g, NodeId v, uint32_t dir) {
    return Forward(dir) ? g.OutDegree(v) : g.InDegree(v);
  }
  static NodeId RandomNeighbor(const DiGraph& g, NodeId v, uint32_t dir,
                               Rng* rng) {
    return Forward(dir) ? g.RandomOutNeighbor(v, rng)
                        : g.RandomInNeighbor(v, rng);
  }
  /// The pivot of an edge for steps in `dir` (forward: the source) and
  /// the node a step over it lands on.
  static NodeId Pivot(const Edge& e, uint32_t dir) {
    return Forward(dir) ? e.src : e.dst;
  }
  static NodeId Target(const Edge& e, uint32_t dir) {
    return Forward(dir) ? e.dst : e.src;
  }

  double Normalized(uint32_t dir, NodeId v) const {
    if (totals_[dir] == 0) return 0.0;
    return static_cast<double>(visits_[dir][v]) /
           static_cast<double>(totals_[dir]);
  }

  NodeId PathNode(uint64_t seg, uint32_t pos) const {
    return static_cast<NodeId>(slab::Hi(paths_.Get(seg, pos)));
  }
  uint32_t PathSlot(uint64_t seg, uint32_t pos) const {
    return slab::Lo(paths_.Get(seg, pos));
  }
  void SetPathSlot(uint64_t seg, uint32_t pos, uint32_t slot) {
    paths_.SetLo(seg, pos, slot);
  }
  uint32_t PathLen(uint64_t seg) const { return paths_.Size(seg); }
  EndReason End(uint64_t seg) const {
    return static_cast<EndReason>(seg_end_[seg]);
  }

  /// Registers the entry at `pos` of `seg` into its direction's step
  /// index (or, for a dangling tail, its direction's dangling index).
  void RegisterStep(uint64_t seg, uint32_t pos) {
    Register(&steps_[Dir(seg, pos)], seg, pos);
  }
  void RegisterDangling(uint64_t seg, uint32_t pos) {
    Register(&dangling_[Dir(seg, pos)], seg, pos);
  }
  void Register(slab::SlabPool* pool, uint64_t seg, uint32_t pos);
  /// Removes a registration (swap-remove with backpointer fixup) and
  /// marks the position unindexed.
  void UnregisterStep(uint64_t seg, uint32_t pos) {
    Unregister(&steps_[Dir(seg, pos)], seg, pos);
  }
  void UnregisterDangling(uint64_t seg, uint32_t pos) {
    Unregister(&dangling_[Dir(seg, pos)], seg, pos);
  }
  void Unregister(slab::SlabPool* pool, uint64_t seg, uint32_t pos) {
    slab::RemoveIndexEntry(pool, &paths_, PathNode(seg, pos),
                           PathSlot(seg, pos), seg, pos);
    SetPathSlot(seg, pos, kNoSlot);
  }

  /// Records a repaired segment into the snapshot delta feed (called
  /// once per scheduled repair at plan-drain time — the repair plan is
  /// already per-segment deduplicated within a batch, so no flag array
  /// and no extra cache line on the hot path; duplicates across the
  /// batches of one window are possible and harmless).
  void RecordDirtySegment(uint64_t seg) { dirty_.Record(seg); }

  /// Drops all path entries with index > keep_pos (counters + index).
  void TruncateAfter(uint64_t seg, uint32_t keep_pos);

  /// Truncates the segment to its bare source node with a pending tail
  /// (kRedoFromSource repairs).
  void ResetSegmentToSource(uint64_t seg);

  /// The walk kernel: continues a walk at `cur`, whose next step has
  /// direction `dir`, until it ends, passing each new node to `emit`;
  /// returns the end reason. `forced` != kInvalidNode takes the first
  /// step there without a reset draw (the original draw survived).
  template <typename Emit>
  uint8_t Walk(const DiGraph& g, NodeId cur, uint32_t dir, NodeId forced,
               Rng* rng, Emit&& emit) const {
    while (true) {
      NodeId next;
      if (forced != kInvalidNode) {
        next = forced;
        forced = kInvalidNode;
      } else if (Forward(dir) && rng->Bernoulli(epsilon_)) {
        return static_cast<uint8_t>(EndReason::kReset);
      } else if (Degree(g, cur, dir) == 0) {
        return DanglingEnd(dir);
      } else {
        next = RandomNeighbor(g, cur, dir, rng);
      }
      emit(next);
      cur = next;
      if constexpr (kDirs == 2) dir ^= 1;
    }
  }

  /// A segment whose tail is pending re-extension. `start` is the tail
  /// position (unregistered); `forced` != kInvalidNode makes the first
  /// step go there without a reset draw (the original draw survived).
  struct PendingWalk {
    uint64_t seg = 0;
    NodeId forced = kInvalidNode;
    uint32_t start = 0;
  };

  /// Drains `walk_queue_`: re-simulates each pending walk to completion
  /// in queue order (all draws of walk i precede walk i+1's; the stream
  /// is deterministic given the RNG state). Returns total fresh steps.
  uint64_t ExtendPendingWalks(const DiGraph& g, Rng* rng);

  /// Registration sweep for a finished walk: end reason, step/dangling
  /// index entries and visit counters for positions (start, end).
  void FinishWalk(uint64_t seg, uint32_t start, uint8_t end);

  /// Lays out segments and rebuilds the indexes from flat path data:
  /// `nodes` holds the concatenated paths, row r covering the next
  /// lengths[r] entries. Exact-fit: no relocation, no dead space.
  void BuildFromFlatPaths(std::size_t n, const std::vector<NodeId>& nodes,
                          const std::vector<uint32_t>& lengths,
                          const std::vector<uint8_t>& ends);

  // --- batched-repair scratch (see Repair) --------------------------
  /// One scheduled segment repair: the earliest switched/broken position
  /// per segment wins; everything after it is re-simulated. The step
  /// direction at `pos` selects the pivot group list.
  struct PendingRepair {
    uint64_t seg = 0;
    uint32_t pos = 0;
    uint32_t group = 0;          ///< start of the pivot group in the batch
    uint32_t group_size = 0;     ///< edges in that group
    bool from_dangling = false;  ///< exact resume, no truncation needed
  };

  /// Per-group scratch for batched removals: a distinct removed target
  /// with its removal count and surviving multiplicity.
  struct RemovedTarget {
    NodeId node;
    uint32_t removed;
    uint32_t remaining;
  };

  /// Sorts the batch by its direction-`dir` pivot (a 1-edge batch is
  /// returned as is).
  std::span<const Edge> GroupByPivot(std::span<const Edge> edges,
                                     uint32_t dir);
  /// The batch repair behind OnEdge(s)Inserted/Removed: collects the
  /// plans of every pivot group, then applies them (DESIGN.md §1).
  WalkUpdateStats Repair(const DiGraph& g, std::span<const Edge> edges,
                         bool inserted, Rng* rng);
  /// Collects the switch decisions of one pivot group of an insertion
  /// batch, or the broken-hop repairs of one of a removal batch;
  /// `group` is the group's start in the pivot-sorted batch.
  void CollectInsertGroup(const DiGraph& g, uint32_t dir,
                          std::span<const Edge> group_edges, uint32_t group,
                          Rng* rng, WalkUpdateStats* stats);
  void CollectRemoveGroup(const DiGraph& g, uint32_t dir,
                          std::span<const Edge> group_edges, uint32_t group,
                          Rng* rng, WalkUpdateStats* stats);

  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.2;
  UpdatePolicy policy_ = UpdatePolicy::kRerouteFromVisit;
  Rng rng_{0};
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
  std::size_t owned_sources_ = 0;

  /// Packed (node, slot) path entries; row = segment.
  slab::SlabPool paths_;
  /// Per-segment EndReason (uint8_t to keep the arena words pure).
  std::vector<uint8_t> seg_end_;
  /// SALSA only: 1 = forward-start segment (empty for PageRank).
  std::vector<uint8_t> seg_fwd_;
  /// Per direction: inverted index of non-terminal visits whose step has
  /// that direction; row = node, words = (seg, pos).
  std::array<slab::SlabPool, kDirs> steps_;
  /// Per direction: segments dangling at each node before such a step.
  std::array<slab::SlabPool, kDirs> dangling_;
  /// Per direction: visits at positions about to step that way
  /// (PageRank: X_v; SALSA: hub, authority), and their totals.
  std::array<std::vector<int64_t>, kDirs> visits_;
  std::array<int64_t, kDirs> totals_{};

  /// Dirty-segment feed for the snapshot publishers (see
  /// dirty_segments()).
  slab::DirtyFeed<uint64_t> dirty_;

  // Reusable batched-update scratch: zero steady-state allocation.
  slab::RepairScratch<PendingRepair> scratch_;
  std::array<std::vector<Edge>, kDirs> grouped_;
  std::vector<RemovedTarget> removed_scratch_;
  std::vector<PendingWalk> walk_queue_;
};

extern template class BasicWalkStore<PageRankWalk>;
extern template class BasicWalkStore<SalsaWalk>;

/// The PageRank Store of Section 2.
using WalkStore = BasicWalkStore<PageRankWalk>;

}  // namespace fastppr

#endif  // FASTPPR_STORE_WALK_STORE_H_
