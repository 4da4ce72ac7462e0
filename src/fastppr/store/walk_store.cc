#include "fastppr/store/walk_store.h"

#include <algorithm>

#include "fastppr/util/check.h"

namespace fastppr {

template <typename Kind>
void BasicWalkStore<Kind>::Init(const DiGraph& g,
                                std::size_t walks_per_node, double epsilon,
                                uint64_t seed, uint32_t shard_index,
                                uint32_t shard_count) {
  FASTPPR_CHECK(walks_per_node >= 1);
  FASTPPR_CHECK(epsilon > 0.0 && epsilon < 1.0);
  FASTPPR_CHECK(shard_count >= 1 && shard_index < shard_count);
  walks_per_node_ = walks_per_node;
  epsilon_ = epsilon;
  rng_ = Rng(seed);
  shard_index_ = shard_index;
  shard_count_ = shard_count;

  const std::size_t n = g.num_nodes();
  const std::size_t spn = segments_per_node();
  const std::size_t num_segs = n * spn;
  FASTPPR_CHECK(num_segs < slab::kHiLimit);
  if constexpr (kDirs == 2) {
    seg_fwd_.assign(num_segs, 0);
    for (std::size_t seg = 0; seg < num_segs; ++seg) {
      seg_fwd_[seg] = (seg % spn) < walks_per_node ? 1 : 0;
    }
  }

  // Phase 1: simulate every owned segment into flat scratch (unowned
  // sources keep zero-length rows). Laying the arena out afterwards with
  // exact-fit capacities packs the rows back-to-back with no relocation
  // and no dead space.
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(
      static_cast<double>(num_segs * kDirs) / epsilon * 1.1 /
          static_cast<double>(shard_count)) + 16);
  std::vector<uint32_t> lengths(num_segs, 0);
  std::vector<uint8_t> ends(num_segs,
                            static_cast<uint8_t>(EndReason::kReset));
  owned_sources_ = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!OwnsSource(u)) continue;
    ++owned_sources_;
    for (std::size_t k = 0; k < spn; ++k) {
      const uint64_t seg = SegId(u, k);
      nodes.push_back(u);
      uint32_t len = 1;
      ends[seg] = Walk(g, u, Dir(seg, 0), kInvalidNode, &rng_,
                       [&](NodeId v) {
                         nodes.push_back(v);
                         ++len;
                       });
      lengths[seg] = len;
    }
  }
  BuildFromFlatPaths(n, nodes, lengths, ends);
}

template <typename Kind>
Status BasicWalkStore<Kind>::InitFromSegments(
    const DiGraph& g, std::size_t walks_per_node, double epsilon,
    uint64_t seed, const std::vector<std::vector<NodeId>>& paths,
    const std::vector<EndReason>& ends)
  requires kIsPageRank
{
  if (walks_per_node < 1 || epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("bad walk-store parameters");
  }
  const std::size_t n = g.num_nodes();
  if (paths.size() != n * walks_per_node || ends.size() != paths.size()) {
    return Status::InvalidArgument("segment count must be n * R");
  }
  // Validate before mutating any state.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto& path = paths[i];
    if (path.empty()) return Status::Corruption("empty segment");
    const NodeId source = static_cast<NodeId>(i / walks_per_node);
    if (path[0] != source) {
      return Status::Corruption("segment does not start at its source");
    }
    for (std::size_t p = 0; p < path.size(); ++p) {
      if (path[p] >= n) return Status::Corruption("node id out of range");
      if (p + 1 < path.size() && !g.HasEdge(path[p], path[p + 1])) {
        return Status::Corruption("stored hop is not an edge");
      }
    }
    if (ends[i] == EndReason::kDangling &&
        g.OutDegree(path.back()) != 0) {
      return Status::Corruption("dangling tail at a node with out-edges");
    }
  }

  walks_per_node_ = walks_per_node;
  epsilon_ = epsilon;
  rng_ = Rng(seed);
  // Persistence snapshots always describe a full (unsharded) store.
  shard_index_ = 0;
  shard_count_ = 1;
  owned_sources_ = n;

  std::vector<NodeId> nodes;
  std::vector<uint32_t> lengths(paths.size(), 0);
  std::vector<uint8_t> flat_ends(paths.size(), 0);
  std::size_t total = 0;
  for (const auto& path : paths) total += path.size();
  nodes.reserve(total);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    nodes.insert(nodes.end(), paths[i].begin(), paths[i].end());
    lengths[i] = static_cast<uint32_t>(paths[i].size());
    flat_ends[i] = static_cast<uint8_t>(ends[i]);
  }
  BuildFromFlatPaths(n, nodes, lengths, flat_ends);
  return Status::OK();
}

template <typename Kind>
void BasicWalkStore<Kind>::BuildFromFlatPaths(
    std::size_t n, const std::vector<NodeId>& nodes,
    const std::vector<uint32_t>& lengths, const std::vector<uint8_t>& ends) {
  const std::size_t num_segs = lengths.size();
  seg_end_ = ends;
  for (uint32_t d = 0; d < kDirs; ++d) {
    visits_[d].assign(n, 0);
    totals_[d] = 0;
  }

  // Count exact per-node index rows so the pools are laid out dense.
  std::array<std::vector<uint32_t>, kDirs> step_count;
  std::array<std::vector<uint32_t>, kDirs> dang_count;
  for (uint32_t d = 0; d < kDirs; ++d) {
    step_count[d].assign(n, 0);
    dang_count[d].assign(n, 0);
  }
  {
    std::size_t at = 0;
    for (std::size_t seg = 0; seg < num_segs; ++seg) {
      const uint32_t len = lengths[seg];
      for (uint32_t p = 0; p + 1 < len; ++p) {
        ++step_count[Dir(seg, p)][nodes[at + p]];
      }
      if (ends[seg] != static_cast<uint8_t>(EndReason::kReset)) {
        ++dang_count[Dir(seg, len - 1)][nodes[at + len - 1]];
      }
      at += len;
    }
  }
  for (uint32_t d = 0; d < kDirs; ++d) {
    steps_[d].ResetWithCapacities(step_count[d], /*headroom=*/true);
    dangling_[d].ResetWithCapacities(dang_count[d], /*headroom=*/true);
  }
  paths_.ResetWithCapacities(lengths, /*headroom=*/true);

  std::size_t at = 0;
  for (std::size_t seg = 0; seg < num_segs; ++seg) {
    const uint32_t len = lengths[seg];
    FASTPPR_CHECK(len < kNoSlot);  // positions must fit the 24-bit field
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId v = nodes[at + p];
      paths_.PushBack(seg, slab::Pack(v, kNoSlot));
      const uint32_t d = Dir(seg, p);
      ++visits_[d][v];
      ++totals_[d];
    }
    for (uint32_t p = 0; p + 1 < len; ++p) RegisterStep(seg, p);
    if (ends[seg] != static_cast<uint8_t>(EndReason::kReset)) {
      RegisterDangling(seg, len - 1);
    }
    at += len;
  }

  scratch_.ResetSegments(num_segs);
  dirty_.ResetCap(slab::DirtyCapForOwnedRows(paths_));
}

template <typename Kind>
void BasicWalkStore<Kind>::Register(slab::SlabPool* pool, uint64_t seg,
                                    uint32_t pos) {
  const uint32_t slot =
      pool->PushBack(PathNode(seg, pos), slab::Pack(seg, pos));
  FASTPPR_CHECK(slot < kNoSlot);
  SetPathSlot(seg, pos, slot);
}

template <typename Kind>
void BasicWalkStore<Kind>::TruncateAfter(uint64_t seg, uint32_t keep_pos) {
  const uint32_t len = PathLen(seg);
  FASTPPR_CHECK(keep_pos < len);
  const uint32_t last = len - 1;
  const bool dangling_tail = End(seg) != EndReason::kReset;
  std::array<int64_t, kDirs> dropped{};
  // Entries are re-read each iteration (not snapshotted): a swap-remove
  // fixup may retarget the slot field of a doomed entry we have not
  // reached yet. Slot fields of doomed entries are never cleared — the
  // row shrinks past them in one O(1) Truncate at the end.
  for (uint32_t q = last; q > keep_pos; --q) {
    const uint64_t word = paths_.Get(seg, q);
    const NodeId node = static_cast<NodeId>(slab::Hi(word));
    const uint32_t slot = slab::Lo(word);
    const uint32_t d = Dir(seg, q);
    if (q != last) {
      slab::RemoveIndexEntry(&steps_[d], &paths_, node, slot, seg, q);
    } else if (dangling_tail) {
      // Terminal entry: in its direction's dangling list or nowhere.
      slab::RemoveIndexEntry(&dangling_[d], &paths_, node, slot, seg, q);
    }
    --visits_[d][node];
    ++dropped[d];
  }
  for (uint32_t d = 0; d < kDirs; ++d) totals_[d] -= dropped[d];
  paths_.Truncate(seg, keep_pos + 1);
}

template <typename Kind>
void BasicWalkStore<Kind>::ResetSegmentToSource(uint64_t seg) {
  const bool was_multi = PathLen(seg) > 1;
  TruncateAfter(seg, 0);
  if (was_multi) {
    UnregisterStep(seg, 0);
  } else if (End(seg) != EndReason::kReset) {
    UnregisterDangling(seg, 0);
  }
  // A reset-terminal singleton already has a pending (kNoSlot) tail.
}

template <typename Kind>
void BasicWalkStore<Kind>::FinishWalk(uint64_t seg, uint32_t start,
                                      uint8_t end_reason) {
  const uint32_t end = PathLen(seg);
  seg_end_[seg] = end_reason;
  for (uint32_t p = start; p + 1 < end; ++p) RegisterStep(seg, p);
  std::array<int64_t, kDirs> added{};
  for (uint32_t p = start + 1; p < end; ++p) {
    const uint32_t d = Dir(seg, p);
    ++visits_[d][PathNode(seg, p)];
    ++added[d];
  }
  for (uint32_t d = 0; d < kDirs; ++d) totals_[d] += added[d];
  if (end_reason != static_cast<uint8_t>(EndReason::kReset)) {
    RegisterDangling(seg, end - 1);
  }
  // A reset tail keeps its pending kNoSlot slot.
}

template <typename Kind>
uint64_t BasicWalkStore<Kind>::ExtendPendingWalks(const DiGraph& g,
                                                  Rng* rng) {
  // Walks are independent; each is simulated appending path words only
  // (the row stays hot), then registered in one sweep by FinishWalk.
  // The per-walk RNG stream is identical to registering inline.
  uint64_t steps = 0;
  for (const PendingWalk& w : walk_queue_) {
    const NodeId tail = PathNode(w.seg, w.start);
    const uint8_t end = Walk(g, tail, Dir(w.seg, w.start), w.forced, rng,
                             [&](NodeId v) {
                               FASTPPR_CHECK(PathLen(w.seg) < kNoSlot);
                               paths_.PushBack(w.seg,
                                               slab::Pack(v, kNoSlot));
                               ++steps;
                             });
    FinishWalk(w.seg, w.start, end);
  }
  return steps;
}

template <typename Kind>
std::span<const Edge> BasicWalkStore<Kind>::GroupByPivot(
    std::span<const Edge> edges, uint32_t dir) {
  if (edges.size() == 1) return edges;
  std::vector<Edge>& sorted = grouped_[dir];
  sorted.assign(edges.begin(), edges.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [dir](const Edge& a, const Edge& b) {
                     return Pivot(a, dir) < Pivot(b, dir);
                   });
  return sorted;
}

template <typename Kind>
void BasicWalkStore<Kind>::CollectInsertGroup(
    const DiGraph& g, uint32_t dir, std::span<const Edge> group_edges,
    uint32_t group, Rng* rng, WalkUpdateStats* stats) {
  const NodeId pivot = Pivot(group_edges[0], dir);
  const uint32_t k = static_cast<uint32_t>(group_edges.size());
  const std::size_t degree = Degree(g, pivot, dir);
  FASTPPR_CHECK_MSG(degree >= k, "graph must already contain the new edges");
  if (degree == k) {
    // The pivot had no edge in this direction before the batch: every
    // segment dangling here resumes through a (uniformly chosen) new
    // edge. The terminal visit already survived its reset draw, so the
    // step is unconditional — this stays exact even under
    // kRedoFromSource, since re-rolling the draw would make
    // reset-terminated segments an absorbing state.
    for (const uint64_t word : dangling_[dir].RowSpan(pivot)) {
      scratch_.Offer(
          PendingRepair{slab::Hi(word), slab::Lo(word), group, k, true});
    }
    return;
  }

  // Coupling step (Proposition 2, telescoped over the group): going from
  // degree d-k to d, each stored visit at the pivot with a step in this
  // direction switches with probability k/d, landing uniformly on the
  // new neighbours.
  const slab::SlabPool& pool = steps_[dir];
  const std::size_t w = pool.Size(pivot);
  if (w == 0) return;
  const uint64_t marks = rng->Binomial(
      w, static_cast<double>(k) / static_cast<double>(degree));
  if (marks == 0) return;
  // Choose `marks` distinct visit indices uniformly (Floyd's algorithm);
  // the earliest marked position per segment wins inside Offer().
  scratch_.SampleDistinct(w, marks, rng);
  stats->entries_scanned += scratch_.picked().size();
  for (std::size_t idx : scratch_.picked()) {
    const uint64_t word = pool.Get(pivot, static_cast<uint32_t>(idx));
    scratch_.Offer(
        PendingRepair{slab::Hi(word), slab::Lo(word), group, k, false});
  }
}

template <typename Kind>
void BasicWalkStore<Kind>::CollectRemoveGroup(
    const DiGraph& g, uint32_t dir, std::span<const Edge> group_edges,
    uint32_t group, Rng* rng, WalkUpdateStats* stats) {
  const NodeId pivot = Pivot(group_edges[0], dir);
  std::vector<RemovedTarget>& targets = removed_scratch_;
  targets.clear();
  for (const Edge& e : group_edges) {
    const NodeId t = Target(e, dir);
    bool found = false;
    for (RemovedTarget& have : targets) {
      if (have.node == t) {
        ++have.removed;
        found = true;
        break;
      }
    }
    if (!found) targets.push_back(RemovedTarget{t, 1, 0});
  }
  // Multiplicity of each removed target still present after the batch:
  // a stored step to t chose uniformly among (remaining + removed)
  // parallel copies, so it chose a removed copy with probability
  // removed / (remaining + removed).
  const std::span<const NodeId> neighbors =
      Forward(dir) ? g.OutNeighbors(pivot) : g.InNeighbors(pivot);
  for (NodeId w : neighbors) {
    for (RemovedTarget& have : targets) {
      if (have.node == w) {
        ++have.remaining;
        break;
      }
    }
  }

  // Scan the visits at the pivot for stored steps into a removed target.
  // The scan is O(W) cheap index reads (entries_scanned); only actual
  // re-simulation counts as walk work, matching the paper's accounting.
  const auto row = steps_[dir].RowSpan(pivot);
  stats->entries_scanned += row.size();
  for (const uint64_t word : row) {
    const uint64_t seg = slab::Hi(word);
    const uint32_t pos = slab::Lo(word);
    FASTPPR_CHECK(pos + 1 < PathLen(seg));
    const NodeId next = PathNode(seg, pos + 1);
    const RemovedTarget* t = nullptr;
    for (const RemovedTarget& cand : targets) {
      if (cand.node == next) {
        t = &cand;
        break;
      }
    }
    if (t == nullptr) continue;
    const double p_broken = static_cast<double>(t->removed) /
                            static_cast<double>(t->remaining + t->removed);
    if (!rng->Bernoulli(p_broken)) continue;  // used a surviving copy
    scratch_.Offer(PendingRepair{seg, pos, group,
                                 static_cast<uint32_t>(group_edges.size()),
                                 false});
  }
}

template <typename Kind>
WalkUpdateStats BasicWalkStore<Kind>::Repair(const DiGraph& g,
                                             std::span<const Edge> edges,
                                             bool inserted, Rng* rng) {
  WalkUpdateStats stats;
  if (edges.empty()) return stats;

  // Collect every switch/break decision — from every pivot direction —
  // before re-simulating anything: a fresh suffix is already distributed
  // for the new graph and must not be switched again by a later group.
  std::array<std::span<const Edge>, kDirs> grouped;
  scratch_.BeginEpoch();
  for (uint32_t dir = 0; dir < kDirs; ++dir) {
    grouped[dir] = GroupByPivot(edges, dir);
    const std::span<const Edge> list = grouped[dir];
    for (std::size_t lo = 0; lo < list.size();) {
      const NodeId pivot = Pivot(list[lo], dir);
      std::size_t hi = lo + 1;
      while (hi < list.size() && Pivot(list[hi], dir) == pivot) ++hi;
      const std::span<const Edge> group = list.subspan(lo, hi - lo);
      if (inserted) {
        CollectInsertGroup(g, dir, group, static_cast<uint32_t>(lo), rng,
                           &stats);
      } else {
        CollectRemoveGroup(g, dir, group, static_cast<uint32_t>(lo), rng,
                           &stats);
      }
      lo = hi;
    }
  }
  if (scratch_.empty()) return stats;
  stats.store_called = 1;

  // Apply phase (DESIGN.md §1, one repair order): truncate every planned
  // segment and draw its forced first hop, then re-simulate the queued
  // suffixes on the final graph.
  scratch_.OrderForApply();
  walk_queue_.clear();
  for (const PendingRepair& plan : scratch_.pending()) {
    const uint64_t seg = plan.seg;
    RecordDirtySegment(seg);
    ++stats.segments_updated;
    const uint32_t dir = Dir(seg, plan.pos);
    // A switched hop lands uniformly on the group's new neighbours. No
    // draw for singleton groups, so a 1-edge batch matches the
    // sequential RNG stream bit for bit.
    auto draw_target = [&]() -> NodeId {
      const std::size_t i =
          plan.group_size == 1 ? 0 : rng->UniformIndex(plan.group_size);
      return Target(grouped[dir][plan.group + i], dir);
    };
    if (plan.from_dangling) {
      UnregisterDangling(seg, plan.pos);
      walk_queue_.push_back(PendingWalk{seg, draw_target(), plan.pos});
      continue;
    }
    if constexpr (Kind::kHasUpdatePolicy) {
      if (policy_ == UpdatePolicy::kRedoFromSource) {
        ResetSegmentToSource(seg);
        walk_queue_.push_back(PendingWalk{seg, kInvalidNode, 0});
        continue;
      }
    }
    TruncateAfter(seg, plan.pos);
    UnregisterStep(seg, plan.pos);  // tail becomes pending
    const NodeId pivot = PathNode(seg, plan.pos);
    if (inserted) {
      walk_queue_.push_back(PendingWalk{seg, draw_target(), plan.pos});
    } else if (Degree(g, pivot, dir) == 0) {
      // The visit survived its reset draw but the pivot now dangles.
      seg_end_[seg] = DanglingEnd(dir);
      RegisterDangling(seg, plan.pos);
    } else {
      // Re-draw the step among the remaining edges, then continue with
      // fresh randomness (no reset draw: the original one survived).
      walk_queue_.push_back(PendingWalk{
          seg, RandomNeighbor(g, pivot, dir, rng), plan.pos});
    }
  }
  stats.walk_steps += ExtendPendingWalks(g, rng);
  return stats;
}

template <typename Kind>
void BasicWalkStore<Kind>::CheckConsistency(const DiGraph& g) const {
  std::array<std::vector<int64_t>, kDirs> recount;
  for (auto& counts : recount) counts.assign(num_nodes(), 0);
  // Indexed positions per pool: each maps to its own entry (below), so
  // equal totals make index rows and path back-slots mutually inverse.
  std::array<std::size_t, kDirs> indexed_steps{}, indexed_dangling{};
  for (uint64_t seg = 0; seg < num_segments(); ++seg) {
    const uint32_t len = PathLen(seg);
    // Unowned sources (sharded mode) have empty rows, owned never do.
    const NodeId source = static_cast<NodeId>(seg / segments_per_node());
    if (len == 0) {
      FASTPPR_CHECK(!OwnsSource(source));
      continue;
    }
    FASTPPR_CHECK(OwnsSource(source));
    FASTPPR_CHECK(PathNode(seg, 0) == source);
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId node = PathNode(seg, p);
      const uint32_t slot = PathSlot(seg, p);
      const uint32_t d = Dir(seg, p);
      ++recount[d][node];
      if (p + 1 < len) {
        // Hop must be a real edge in the step's direction and the entry
        // must be indexed.
        const NodeId next = PathNode(seg, p + 1);
        FASTPPR_CHECK_MSG(Forward(d) ? g.HasEdge(node, next)
                                     : g.HasEdge(next, node),
                          "stored hop is not an edge");
        FASTPPR_CHECK(slot < steps_[d].Size(node));
        FASTPPR_CHECK(steps_[d].Get(node, slot) == slab::Pack(seg, p));
        ++indexed_steps[d];
      } else if (End(seg) == EndReason::kReset) {
        FASTPPR_CHECK(slot == kNoSlot);
        FASTPPR_CHECK(Forward(d));
      } else {
        FASTPPR_CHECK(seg_end_[seg] == DanglingEnd(d));
        FASTPPR_CHECK_MSG(Degree(g, node, d) == 0,
                          "dangling tail at a node with edges");
        FASTPPR_CHECK(slot < dangling_[d].Size(node));
        FASTPPR_CHECK(dangling_[d].Get(node, slot) == slab::Pack(seg, p));
        ++indexed_dangling[d];
      }
    }
  }
  for (uint32_t d = 0; d < kDirs; ++d) {
    int64_t total = 0;
    std::size_t step_entries = 0, dangling_entries = 0;
    for (NodeId vtx = 0; vtx < num_nodes(); ++vtx) {
      FASTPPR_CHECK(recount[d][vtx] == visits_[d][vtx]);
      total += recount[d][vtx];
      step_entries += steps_[d].Size(vtx);
      dangling_entries += dangling_[d].Size(vtx);
    }
    FASTPPR_CHECK(total == totals_[d]);
    FASTPPR_CHECK(step_entries == indexed_steps[d]);
    FASTPPR_CHECK(dangling_entries == indexed_dangling[d]);
  }
}

template class BasicWalkStore<PageRankWalk>;
template class BasicWalkStore<SalsaWalk>;

}  // namespace fastppr
