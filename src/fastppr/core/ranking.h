#ifndef FASTPPR_CORE_RANKING_H_
#define FASTPPR_CORE_RANKING_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/types.h"

namespace fastppr {

/// One ranked entry: a node and its count.
struct CountedNode {
  NodeId node = kInvalidNode;
  int64_t count = 0;
};

/// The ranking's total order: count descending, ties broken by node id
/// ascending. Shared by every ranking below, so the S=1 bit-identity
/// contract between the flat engines, the sharded engine and the query
/// service is structural.
inline bool RanksBefore(const CountedNode& a, const CountedNode& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.node < b.node;
}

/// The k best (node, count) pairs of `counts` in ranking order, by one
/// pass with a k-entry heap whose root is the worst entry kept: most
/// nodes cost a single compare against that root, so selecting a short
/// prefix from n counts is O(n + k log k) with no n-sized scratch.
inline void TopCountsInto(std::span<const int64_t> counts, std::size_t k,
                          std::vector<CountedNode>* out) {
  out->clear();
  const std::size_t take = std::min(k, counts.size());
  if (take == 0) return;
  out->reserve(take);
  for (NodeId v = 0; v < counts.size(); ++v) {
    const CountedNode c{v, counts[v]};
    if (out->size() < take) {
      out->push_back(c);
      std::push_heap(out->begin(), out->end(), RanksBefore);
    } else if (RanksBefore(c, out->front())) {
      std::pop_heap(out->begin(), out->end(), RanksBefore);
      out->back() = c;
      std::push_heap(out->begin(), out->end(), RanksBefore);
    }
  }
  std::sort_heap(out->begin(), out->end(), RanksBefore);
}

/// Nodes with the k highest counts, in the RanksBefore order (an
/// index partial_sort — independent of TopCountsInto's heap, which the
/// query service's equivalence tests check against it).
inline std::vector<NodeId> TopKByCount(std::span<const int64_t> counts,
                                       std::size_t k) {
  std::vector<NodeId> order(counts.size());
  for (NodeId v = 0; v < order.size(); ++v) order[v] = v;
  const std::size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&counts](NodeId a, NodeId b) {
                      return RanksBefore({a, counts[a]}, {b, counts[b]});
                    });
  order.resize(take);
  return order;
}

}  // namespace fastppr

#endif  // FASTPPR_CORE_RANKING_H_
