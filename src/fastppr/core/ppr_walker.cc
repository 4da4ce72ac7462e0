#include "fastppr/core/ppr_walker.h"

#include <algorithm>
#include <unordered_set>

namespace fastppr {
namespace {

/// A ranking candidate; its score is the visit frequency in the walk.
ScoredNode Scored(NodeId node, int64_t visits, uint64_t walk_length) {
  return {node, visits,
          walk_length > 0 ? static_cast<double>(visits) /
                                static_cast<double>(walk_length)
                          : 0.0};
}

/// Moves the k best candidates to the front in rank order (visits desc,
/// node asc) and returns how many there are.
std::size_t SortTop(std::vector<ScoredNode>* candidates, std::size_t k) {
  const std::size_t take = std::min(k, candidates->size());
  std::partial_sort(candidates->begin(), candidates->begin() + take,
                    candidates->end(),
                    [](const ScoredNode& a, const ScoredNode& b) {
                      if (a.visits != b.visits) return a.visits > b.visits;
                      return a.node < b.node;
                    });
  return take;
}

}  // namespace

std::vector<ScoredNode> RankVisits(const VisitCounts& counts, std::size_t k,
                                   uint64_t walk_length,
                                   const std::vector<NodeId>& exclude) {
  std::unordered_set<NodeId> skip(exclude.begin(), exclude.end());
  std::vector<ScoredNode> ranked;
  ranked.reserve(counts.size());
  for (const auto& [v, visits] : counts) {
    if (!skip.count(v)) ranked.push_back(Scored(v, visits, walk_length));
  }
  ranked.resize(SortTop(&ranked, k));
  return ranked;
}

void RankVisitsDenseInto(const std::vector<int64_t>& counts,
                         const std::vector<NodeId>& touched,
                         const std::vector<uint8_t>& excluded, std::size_t k,
                         uint64_t walk_length, std::vector<ScoredNode>* tmp,
                         std::vector<ScoredNode>* ranked) {
  tmp->clear();
  for (NodeId v : touched) {
    if (!excluded[v]) tmp->push_back(Scored(v, counts[v], walk_length));
  }
  const std::size_t take = SortTop(tmp, k);
  ranked->assign(tmp->begin(), tmp->begin() + take);
}

}  // namespace fastppr
