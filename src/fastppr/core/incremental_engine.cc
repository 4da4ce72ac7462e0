#include "fastppr/core/incremental_engine.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fastppr/core/ranking.h"
#include "fastppr/graph/graph_io.h"
#include "fastppr/store/walk_store_io.h"
#include "fastppr/util/check.h"

namespace fastppr {

namespace {

std::shared_ptr<SocialStore> ImportedStore(const DiGraph& initial) {
  auto social = std::make_shared<SocialStore>(initial.num_nodes());
  social->ImportGraph(initial);
  return social;
}

}  // namespace

template <typename Kind>
IncrementalEngine<Kind>::IncrementalEngine(std::size_t num_nodes,
                                           const MonteCarloOptions& opts)
    : IncrementalEngine(std::make_shared<SocialStore>(num_nodes), opts) {}

template <typename Kind>
IncrementalEngine<Kind>::IncrementalEngine(const DiGraph& initial,
                                           const MonteCarloOptions& opts)
    : IncrementalEngine(ImportedStore(initial), opts) {}

template <typename Kind>
IncrementalEngine<Kind>::IncrementalEngine(
    std::shared_ptr<SocialStore> social, const MonteCarloOptions& opts)
    : IncrementalEngine(ForRecovery{}, std::move(social), opts) {
  walks_.Init(social_->graph(), opts.walks_per_node, opts.epsilon,
              opts.seed, opts.shard_index, opts.shard_count);
}

template <typename Kind>
IncrementalEngine<Kind>::IncrementalEngine(
    ForRecovery, std::shared_ptr<SocialStore> social,
    const MonteCarloOptions& opts)
    : options_(opts), social_(std::move(social)),
      rng_(opts.seed ^ Kind::kRngSalt) {
  FASTPPR_CHECK(social_ != nullptr);
  if constexpr (Kind::kHasUpdatePolicy) {
    walks_.set_update_policy(opts.update_policy);
  }
}

template <typename Kind>
Status IncrementalEngine<Kind>::AddEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(social_->AddEdge(src, dst));
  last_stats_ = walks_.OnEdgeInserted(social_->graph(), src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++arrivals_;
  return Status::OK();
}

template <typename Kind>
Status IncrementalEngine<Kind>::RemoveEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(social_->RemoveEdge(src, dst));
  last_stats_ = walks_.OnEdgeRemoved(social_->graph(), src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++removals_;
  return Status::OK();
}

template <typename Kind>
void IncrementalEngine<Kind>::RepairEdgesInserted(
    std::span<const Edge> edges) {
  const WalkUpdateStats stats =
      walks_.OnEdgesInserted(social_->graph(), edges, &rng_);
  last_stats_.Accumulate(stats);
  lifetime_stats_.Accumulate(stats);
  arrivals_ += edges.size();
}

template <typename Kind>
void IncrementalEngine<Kind>::RepairEdgesRemoved(
    std::span<const Edge> edges) {
  const WalkUpdateStats stats =
      walks_.OnEdgesRemoved(social_->graph(), edges, &rng_);
  last_stats_.Accumulate(stats);
  lifetime_stats_.Accumulate(stats);
  removals_ += edges.size();
}

template <typename Kind>
Status IncrementalEngine<Kind>::ApplyEvent(const EdgeEvent& event) {
  if (event.kind == EdgeEvent::Kind::kInsert) {
    return AddEdge(event.edge.src, event.edge.dst);
  }
  return RemoveEdge(event.edge.src, event.edge.dst);
}

template <typename Kind>
Status IncrementalEngine<Kind>::ApplyEvents(
    std::span<const EdgeEvent> events) {
  // Same-kind chunking via the shared protocol (ApplyEventsInChunks):
  // within a chunk the graph is mutated first and the walk repairs are
  // grouped by pivot; on failure the applied prefix is already repaired
  // and consistent. last_event_stats() accumulates the batch.
  BeginRepairWindow();
  return ApplyEventsInChunks(
      events, &chunk_scratch_,
      [this](const Edge& e, bool insert) {
        return insert ? social_->AddEdge(e.src, e.dst)
                      : social_->RemoveEdge(e.src, e.dst);
      },
      [this](std::span<const Edge> applied, bool insert) {
        if (insert) {
          RepairEdgesInserted(applied);
        } else {
          RepairEdgesRemoved(applied);
        }
      });
}

template <typename Kind>
Status IncrementalEngine<Kind>::SaveSnapshot(
    const std::string& directory) const
  requires kIsPageRank
{
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return Status::IOError("cannot create " + directory);
  FASTPPR_RETURN_IF_ERROR(
      WriteSnapEdgeList(directory + "/graph.txt", graph().Edges()));
  return SaveWalkStore(walks_, directory + "/walks.bin");
}

template <typename Kind>
Status IncrementalEngine<Kind>::LoadSnapshot(
    const std::string& directory, const MonteCarloOptions& opts,
    std::unique_ptr<IncrementalEngine>* engine)
  requires kIsPageRank
{
  // The walks header carries the node universe, isolated trailing nodes
  // included; every graph endpoint must lie inside it. The file is
  // mapped and checksummed once, and Open has already checked that the
  // body can hold n·R segments, so no graph is sized from a header its
  // body cannot back.
  WalkSnapshotReader walks;
  FASTPPR_RETURN_IF_ERROR(
      WalkSnapshotReader::Open(directory + "/walks.bin", &walks));
  const uint64_t num_nodes = walks.num_nodes();
  // Node ids inside an engine snapshot are already dense and must be
  // preserved exactly (ReadSnapEdgeList would remap by first appearance),
  // so read the raw pairs directly.
  std::vector<Edge> edges;
  {
    std::ifstream in(directory + "/graph.txt");
    if (!in.is_open()) {
      return Status::IOError("cannot open " + directory + "/graph.txt");
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      uint64_t src = 0, dst = 0;
      if (!(ls >> src >> dst)) {
        return Status::Corruption("malformed graph snapshot line");
      }
      if (src >= num_nodes || dst >= num_nodes) {
        return Status::Corruption("graph snapshot endpoint out of range");
      }
      edges.push_back(
          Edge{static_cast<NodeId>(src), static_cast<NodeId>(dst)});
    }
  }

  MonteCarloOptions adjusted = opts;
  // Snapshots always describe a full (unsharded) store.
  adjusted.shard_index = 0;
  adjusted.shard_count = 1;
  auto candidate = std::make_unique<IncrementalEngine>(
      ForRecovery{}, std::make_shared<SocialStore>(num_nodes), adjusted);
  DiGraph* g = candidate->social_->mutable_graph();
  for (const Edge& e : edges) {
    FASTPPR_RETURN_IF_ERROR(g->AddEdge(e.src, e.dst));
  }
  FASTPPR_RETURN_IF_ERROR(walks.LoadInto(*g, &candidate->walks_));
  candidate->options_.walks_per_node = candidate->walks_.walks_per_node();
  candidate->options_.epsilon = candidate->walks_.epsilon();
  *engine = std::move(candidate);
  return Status::OK();
}

template <typename Kind>
std::vector<NodeId> IncrementalEngine<Kind>::TopKByRanking(
    std::size_t k) const {
  std::vector<int64_t> counts(num_nodes());
  for (NodeId v = 0; v < counts.size(); ++v) {
    counts[v] = walks_.RankingVisits(v);
  }
  return TopKByCount(counts, k);
}

template <typename Kind>
void IncrementalEngine<Kind>::AccumulateRankingCounts(
    std::vector<int64_t>* acc) const {
  FASTPPR_CHECK(acc->size() == num_nodes());
  for (NodeId v = 0; v < acc->size(); ++v) {
    (*acc)[v] += walks_.RankingVisits(v);
  }
}

template class IncrementalEngine<PageRankWalk>;
template class IncrementalEngine<SalsaWalk>;

}  // namespace fastppr
