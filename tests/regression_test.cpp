// Cross-cutting regression tests: reproducibility guarantees, exact
// length accounting, multigraph switch fractions, and distribution
// properties not covered by the per-module suites.

#include <bit>
#include <cmath>
#include <map>
#include <unordered_map>

#include <gtest/gtest.h>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/incremental_salsa.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/generators.h"

namespace fastppr {
namespace {

MonteCarloOptions Opts(std::size_t R, double eps, uint64_t seed) {
  MonteCarloOptions o;
  o.walks_per_node = R;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

TEST(ReproducibilityTest, SameSeedSameEngineState) {
  Rng rng(1);
  auto edges = ErdosRenyi(60, 400, &rng);
  IncrementalPageRank a(60, Opts(5, 0.2, 7));
  IncrementalPageRank b(60, Opts(5, 0.2, 7));
  for (const Edge& e : edges) {
    ASSERT_TRUE(a.AddEdge(e.src, e.dst).ok());
    ASSERT_TRUE(b.AddEdge(e.src, e.dst).ok());
  }
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_EQ(a.walk_store().VisitCount(v), b.walk_store().VisitCount(v));
  }
  EXPECT_EQ(a.lifetime_stats().walk_steps, b.lifetime_stats().walk_steps);
}

TEST(ReproducibilityTest, SameSeedSameWalk) {
  Rng rng(2);
  auto edges = ErdosRenyi(40, 300, &rng);
  DiGraph g(40);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(g, Opts(5, 0.2, 8));
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.social_store());
  PersonalizedWalkResult w1, w2;
  ASSERT_TRUE(walker.Walk(3, 5000, 99, &w1).ok());
  ASSERT_TRUE(walker.Walk(3, 5000, 99, &w2).ok());
  EXPECT_EQ(w1.length, w2.length);
  EXPECT_EQ(w1.fetches, w2.fetches);
  EXPECT_EQ(w1.visit_counts.size(), w2.visit_counts.size());
  for (const auto& [node, count] : w1.visit_counts) {
    EXPECT_EQ(w2.visit_counts.at(node), count);
  }
}

TEST(WalkLengthTest, ExactLengthAccounting) {
  Rng rng(3);
  auto edges = ErdosRenyi(30, 200, &rng);
  DiGraph g(30);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(g, Opts(5, 0.2, 9));
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.social_store());
  for (uint64_t len : {1u, 2u, 17u, 1000u}) {
    PersonalizedWalkResult w;
    ASSERT_TRUE(walker.Walk(0, len, 10, &w).ok());
    EXPECT_EQ(w.length, len);
  }
}

TEST(MultigraphTest, ParallelEdgeDoublesHopProbability) {
  // 0 -> {1, 2}, then add a second copy of 0 -> 1: fresh walks out of 0
  // should pick 1 with probability 2/3.
  DiGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(3, 0).ok());
  WalkStore store;
  store.Init(g, 4000, 0.2, 11);
  Rng rng(12);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  store.OnEdgeInserted(g, 0, 1, &rng);
  store.CheckConsistency(g);
  // Count the stored next-hops out of node 0.
  std::size_t to1 = 0, total = 0;
  for (NodeId u = 0; u < 4; ++u) {
    for (std::size_t k = 0; k < 4000; ++k) {
      const auto seg = store.GetSegment(u, k);
      for (std::size_t p = 0; p + 1 < seg.size(); ++p) {
        if (seg.node(p) != 0) continue;
        ++total;
        if (seg.node(p + 1) == 1) ++to1;
      }
    }
  }
  ASSERT_GT(total, 1000u);
  EXPECT_NEAR(static_cast<double>(to1) / static_cast<double>(total),
              2.0 / 3.0, 0.03);
}

TEST(SalsaStarTest, CenterDominatesAuthority) {
  // Star with reciprocated edges: leaves <-> center. At small eps the
  // center holds ~half the authority mass (indeg/m = 10/20).
  DiGraph g(11);
  for (NodeId leaf = 1; leaf <= 10; ++leaf) {
    ASSERT_TRUE(g.AddEdge(leaf, 0).ok());
    ASSERT_TRUE(g.AddEdge(0, leaf).ok());
  }
  IncrementalSalsa engine(g, Opts(50, 0.05, 13));
  EXPECT_GT(engine.AuthorityEstimate(0), 0.4);
  for (NodeId leaf = 1; leaf <= 10; ++leaf) {
    EXPECT_LT(engine.AuthorityEstimate(leaf), 0.1);
  }
  EXPECT_EQ(engine.TopKAuthorities(1)[0], 0u);
}

TEST(EngineChurnTest, EstimatesSumToOneThroughout) {
  Rng rng(14);
  auto edges = ErdosRenyi(50, 400, &rng);
  ChurnStream stream(edges, 0.2, 50, &rng);
  IncrementalPageRank engine(50, Opts(5, 0.25, 15));
  std::size_t events = 0;
  while (auto ev = stream.Next()) {
    ASSERT_TRUE(engine.ApplyEvent(*ev).ok());
    if (++events % 100 == 0) {
      auto est = engine.NormalizedEstimates();
      double sum = 0.0;
      for (double x : est) sum += x;
      ASSERT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(EngineChurnTest, SalsaDirichletStreamKeepsInvariants) {
  Rng rng(16);
  DirichletStream stream(60, 800, &rng);
  IncrementalSalsa engine(60, Opts(5, 0.2, 17));
  while (auto ev = stream.Next()) {
    ASSERT_TRUE(engine.ApplyEvent(*ev).ok());
  }
  engine.CheckConsistency();
  // Authority frequencies over all nodes sum to 1.
  double sum = 0.0;
  for (NodeId v = 0; v < 60; ++v) sum += engine.AuthorityEstimate(v);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WalkerIndependenceTest, DifferentSeedsDecorrelate) {
  Rng rng(18);
  auto edges = ErdosRenyi(100, 900, &rng);
  DiGraph g(100);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(g, Opts(3, 0.2, 19));
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.social_store());
  PersonalizedWalkResult w1, w2;
  ASSERT_TRUE(walker.Walk(5, 20000, 100, &w1).ok());
  ASSERT_TRUE(walker.Walk(5, 20000, 101, &w2).ok());
  // The stored segments are shared, so distributions agree, but manual
  // steps must differ: the walks should not be identical.
  bool identical = w1.visit_counts.size() == w2.visit_counts.size();
  if (identical) {
    for (const auto& [node, count] : w1.visit_counts) {
      auto it = w2.visit_counts.find(node);
      if (it == w2.visit_counts.end() || it->second != count) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(StarTrapTest, IncrementalSurvivesStarCollapse) {
  // Build a star, then delete the centre's out-edges one by one until it
  // dangles; estimates must track power iteration at the end.
  DiGraph g(12);
  for (NodeId leaf = 1; leaf < 12; ++leaf) {
    ASSERT_TRUE(g.AddEdge(leaf, 0).ok());
    ASSERT_TRUE(g.AddEdge(0, leaf).ok());
  }
  IncrementalPageRank engine(g, Opts(60, 0.2, 20));
  for (NodeId leaf = 1; leaf < 12; ++leaf) {
    ASSERT_TRUE(engine.RemoveEdge(0, leaf).ok());
  }
  engine.CheckConsistency();
  PowerIterationOptions opts;
  opts.epsilon = 0.2;
  auto exact =
      PageRankPowerIteration(CsrGraph::FromDiGraph(engine.graph()), opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 12; ++v) {
    l1 += std::abs(engine.NormalizedEstimate(v) - exact.scores[v]);
  }
  EXPECT_LT(l1, 0.1);
}

TEST(SelfLoopTest, WalksHandleSelfLoops) {
  DiGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 0).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  IncrementalPageRank engine(g, Opts(20, 0.2, 21));
  engine.CheckConsistency();
  // Self-loop keeps mass at 0: it should outrank 1 and 2 isn't obvious,
  // but all estimates are positive and sum to 1.
  double sum = 0.0;
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_GT(engine.NormalizedEstimate(v), 0.0);
    sum += engine.NormalizedEstimate(v);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PowerIterationAgreementTest, PaperVsVisitNormalization) {
  // On a strongly-connected dangling-free graph the paper's nR/eps
  // estimator and the visit normalization agree within sampling noise.
  DiGraph g(20);
  for (const Edge& e : DirectedCycle(20)) {
    ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  }
  for (NodeId v = 0; v < 20; ++v) {
    ASSERT_TRUE(g.AddEdge(v, (v + 5) % 20).ok());
  }
  IncrementalPageRank engine(g, Opts(40, 0.2, 22));
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_NEAR(engine.Estimate(v), engine.NormalizedEstimate(v),
                0.3 * engine.NormalizedEstimate(v) + 0.002);
  }
}

// ---- personalized walk stream golden --------------------------------
//
// Pins the personalized walker's RNG stream, stitching and fetch
// accounting across commits: every counter and every ranked entry of
// Walk / TopK / TopKInto is folded into one FNV-1a hash per (walk kind,
// fetch mode) and compared against constants recorded from an earlier
// build. The batched-vs-unbatched differentials cannot catch a drift of
// the shared walk core (both sides would move together); this can. A
// deliberate change to the walk stream must re-record the constants.

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  template <typename Result>
  void AddCounters(const Result& r) {
    Add(r.length);
    Add(r.fetches);
    Add(r.segments_used);
    Add(r.manual_steps);
    Add(r.resets);
  }
  void AddCounts(const std::unordered_map<NodeId, int64_t>& counts) {
    const std::map<NodeId, int64_t> sorted(counts.begin(), counts.end());
    Add(sorted.size());
    for (const auto& [node, visits] : sorted) {
      Add(node);
      Add(static_cast<uint64_t>(visits));
    }
  }
  void AddRanked(const std::vector<ScoredNode>& ranked) {
    Add(ranked.size());
    for (const ScoredNode& s : ranked) {
      Add(s.node);
      Add(static_cast<uint64_t>(s.visits));
      Add(std::bit_cast<uint64_t>(s.score));
    }
  }
};

// ErdosRenyi on the first 60 of 70 nodes, plus 5 -> 65 (65 has no
// out-edge: a forward dangling end) and 66 -> 5 (66 has no in-edge: a
// backward dangling end); 67..69 stay isolated.
template <typename Kind>
struct GoldenFixture {
  GoldenFixture() : social(70) {
    Rng rng(31);
    for (const Edge& e : ErdosRenyi(60, 420, &rng)) {
      EXPECT_TRUE(social.AddEdge(e.src, e.dst).ok());
    }
    EXPECT_TRUE(social.AddEdge(5, 65).ok());
    EXPECT_TRUE(social.AddEdge(66, 5).ok());
    store.Init(social.graph(), /*R=*/3, /*eps=*/0.2, 32);
  }
  SocialStore social;
  BasicWalkStore<Kind> store;
};

struct GoldenCase {
  NodeId seed;
  uint64_t length;
  uint64_t rng_seed;
};
constexpr GoldenCase kGoldenCases[] = {
    {0, 1, 5}, {3, 17, 9}, {65, 40, 10}, {66, 500, 12},
    {7, 3000, 11}, {12, 20000, 13}, {69, 30, 14},
};

// Runs every golden case through Walk (its visit maps in direction
// order), TopK and TopKInto (one scratch reused across cases) and
// hashes the results.
template <typename Kind>
uint64_t GoldenHash(FetchMode mode) {
  using Walker = BasicPersonalizedWalker<Kind, BasicWalkStore<Kind>>;
  using Result = typename Walker::Result;
  GoldenFixture<Kind> f;
  WalkerOptions options;
  options.fetch_mode = mode;
  const Walker walker(&f.store, &f.social, options);
  Fnv fnv;
  typename Walker::Scratch scratch;
  for (const GoldenCase& c : kGoldenCases) {
    Result walk;
    EXPECT_TRUE(walker.Walk(c.seed, c.length, c.rng_seed, &walk).ok());
    fnv.AddCounters(walk);
    for (uint32_t d = 0; d < Kind::kDirections; ++d) {
      fnv.AddCounts(walk.counts(d));
    }
    for (bool exclude_friends : {false, true}) {
      std::vector<ScoredNode> ranked;
      Result stats;
      EXPECT_TRUE(walker
                      .TopK(c.seed, 10, c.length, exclude_friends,
                            c.rng_seed, &ranked, &stats)
                      .ok());
      fnv.AddRanked(ranked);
      fnv.AddCounters(stats);
      std::vector<ScoredNode> dense;
      Result dense_stats;
      EXPECT_TRUE(walker
                      .TopKInto(c.seed, 10, c.length, exclude_friends,
                                c.rng_seed, &scratch, &dense, &dense_stats)
                      .ok());
      fnv.AddRanked(dense);
      fnv.AddCounters(dense_stats);
    }
  }
  return fnv.h;
}

TEST(WalkStreamGoldenTest, PageRankAndSalsaWalksMatchRecordedHashes) {
  constexpr FetchMode kModes[] = {FetchMode::kSegmentsAndAllEdges,
                                  FetchMode::kSegmentsAndOneEdge};
  const uint64_t kPageRankGolden[] = {0xfd08a7c5446f9a9bULL,
                                      0xdbfcd17f16c2dc38ULL};
  const uint64_t kSalsaGolden[] = {0x88436f90f6f4606cULL,
                                   0xd75fb665b838652fULL};
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(GoldenHash<PageRankWalk>(kModes[m]), kPageRankGolden[m])
        << "fetch mode " << m;
    EXPECT_EQ(GoldenHash<SalsaWalk>(kModes[m]), kSalsaGolden[m])
        << "fetch mode " << m;
  }
}

}  // namespace
}  // namespace fastppr
