#ifndef FASTPPR_CORE_INCREMENTAL_PAGERANK_H_
#define FASTPPR_CORE_INCREMENTAL_PAGERANK_H_

#include "fastppr/core/incremental_engine.h"

namespace fastppr {

/// The paper's incremental PageRank system (Section 2): a SocialStore
/// holding the evolving follow graph plus a WalkStore ("PageRank Store")
/// holding R walk segments per node, kept consistent on every edge
/// arrival and departure at O(nR ln m / eps^2) *total* cost under
/// random-order arrivals (Theorem 4).
using IncrementalPageRank = IncrementalEngine<PageRankWalk>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_INCREMENTAL_PAGERANK_H_
