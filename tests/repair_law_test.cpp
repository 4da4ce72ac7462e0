// Exact-law oracle for repaired walk segments (Proposition 2).
//
// The paper's claim is distributional: after any stream of arrivals and
// departures, every stored segment is distributed exactly like a fresh
// walk on the current graph. The other tests compare estimates against
// power iteration within loose tolerances, or compare execution modes
// with each other; neither catches a small bias in the coupling. This
// one checks the law itself.
//
// On graphs of at most 6 nodes with a large R, one store holds thousands
// of independent segments per (source, start direction). After a fixed
// random insert/delete stream — applied through the single-event path
// and through ApplyEvents batches, for both walk kinds — each source's
// empirical distributions of
//   * endpoint x end reason,
//   * length (tail pooled), and
//   * first hop (or "none")
// are compared with the exact law, computed by dynamic programming over
// the (node, step direction) Markov chain of the final graph, by a
// chi-square test at a Bonferroni-corrected level over the fixed seed
// set.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/incremental_salsa.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

constexpr std::size_t kNodes = 5;
constexpr std::size_t kWalksPerNode = 3000;
constexpr double kEpsilon = 0.25;
constexpr std::size_t kEvents = 48;
constexpr uint64_t kSeeds[] = {101, 202, 303};
/// Lengths >= kLengthCap share one bin.
constexpr std::size_t kLengthCap = 24;
/// Family-wise level over every comparison in this file: seeds (3) x
/// sources (5) x statistics (3) x start directions summed over the four
/// (kind, path) cases (1 + 1 + 2 + 2) = 270 comparisons.
constexpr double kFamilyAlpha = 0.01;
constexpr double kComparisons = 270.0;
constexpr double kAlpha = kFamilyAlpha / kComparisons;

// --- chi-square tail probability ---------------------------------------

/// Regularized upper incomplete gamma Q(a, x) (series / continued
/// fraction, as in Numerical Recipes' gammq).
double GammaQ(double a, double x) {
  if (x <= 0.0) return 1.0;
  const double log_front = a * std::log(x) - x - std::lgamma(a);
  if (x < a + 1.0) {
    double term = 1.0 / a, sum = term;
    for (int n = 1; n < 1000; ++n) {
      term *= x / (a + n);
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return 1.0 - sum * std::exp(log_front);
  }
  const double tiny = 1e-300;
  double b = x + 1.0 - a, c = 1.0 / tiny, d = 1.0 / b, h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return std::exp(log_front) * h;
}

/// Chi-square goodness-of-fit p-value of `observed` counts against the
/// `probs` law. Bins expecting fewer than 5 samples are pooled; an
/// observation in a zero-probability bin has p-value 0.
double ChiSquarePValue(const std::vector<int64_t>& observed,
                       const std::vector<double>& probs) {
  int64_t total = 0;
  for (int64_t o : observed) total += o;
  double stat = 0.0;
  int bins = 0;
  double pooled_expected = 0.0;
  int64_t pooled_observed = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = probs[i] * static_cast<double>(total);
    if (probs[i] <= 1e-12) {
      if (observed[i] > 0) return 0.0;
      continue;
    }
    if (expected < 5.0) {
      pooled_expected += expected;
      pooled_observed += observed[i];
      continue;
    }
    const double diff = static_cast<double>(observed[i]) - expected;
    stat += diff * diff / expected;
    ++bins;
  }
  if (pooled_expected > 0.0) {
    const double diff =
        static_cast<double>(pooled_observed) - pooled_expected;
    stat += diff * diff / pooled_expected;
    ++bins;
  }
  if (bins <= 1) return 1.0;
  return GammaQ(0.5 * (bins - 1), 0.5 * stat);
}

// --- the exact law -------------------------------------------------------

/// One (source, start direction) law: endpoint x end reason (index
/// node * 3 + reason), length 1..kLengthCap (last bin pooled), and first
/// hop (index kNodes = none).
struct Law {
  std::vector<double> end = std::vector<double>(kNodes * 3, 0.0);
  std::vector<double> length = std::vector<double>(kLengthCap, 0.0);
  std::vector<double> first = std::vector<double>(kNodes + 1, 0.0);
};

struct Samples {
  std::vector<int64_t> end = std::vector<int64_t>(kNodes * 3, 0);
  std::vector<int64_t> length = std::vector<int64_t>(kLengthCap, 0);
  std::vector<int64_t> first = std::vector<int64_t>(kNodes + 1, 0);
};

/// Dynamic programming over (node, direction): the probability mass of
/// a fresh walk from `source` whose first step has direction `dir0`
/// (0 forward, 1 backward) sitting at each state after p steps. Resets
/// are drawn before forward steps only; a node with no edge in the step's
/// direction ends the walk as dangling in that direction (reason 1 +
/// dir). `directions` is 1 for PageRank and 2 for SALSA.
Law ExactLaw(const DiGraph& g, NodeId source, uint32_t dir0,
             uint32_t directions) {
  Law law;
  std::vector<double> cur(kNodes * 2, 0.0), next(kNodes * 2, 0.0);
  cur[source * 2 + dir0] = 1.0;
  for (std::size_t p = 0; p < 4000; ++p) {
    double alive = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (NodeId x = 0; x < kNodes; ++x) {
      for (uint32_t d = 0; d < 2; ++d) {
        double mass = cur[x * 2 + d];
        if (mass == 0.0) continue;
        double ended = 0.0;
        if (d == 0) {
          law.end[x * 3 + 0] += mass * kEpsilon;
          ended += mass * kEpsilon;
          mass *= 1.0 - kEpsilon;
        }
        const auto nbrs = d == 0 ? g.OutNeighbors(x) : g.InNeighbors(x);
        if (nbrs.empty()) {
          law.end[x * 3 + 1 + d] += mass;
          ended += mass;
        } else {
          const uint32_t nd = directions == 1 ? d : 1 - d;
          for (NodeId y : nbrs) {
            const double share = mass / static_cast<double>(nbrs.size());
            next[y * 2 + nd] += share;
            if (p == 0) law.first[y] += share;
          }
        }
        law.length[std::min(p, kLengthCap - 1)] += ended;
        if (p == 0) law.first[kNodes] += ended;
      }
    }
    std::swap(cur, next);
    for (double m : cur) alive += m;
    if (alive < 1e-15) break;
  }
  return law;
}

// --- the streams ---------------------------------------------------------

/// A random insert/delete stream on kNodes nodes: parallel edges allowed,
/// deletions of live edges, small enough that nodes regularly lose and
/// regain all their out- or in-edges (the dangling paths).
std::vector<EdgeEvent> Stream(uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeEvent> events;
  std::vector<Edge> live;
  while (events.size() < kEvents) {
    if (live.size() > 3 && rng.Bernoulli(0.4)) {
      const std::size_t at = rng.UniformIndex(live.size());
      events.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, live[at]});
      live[at] = live.back();
      live.pop_back();
      continue;
    }
    const NodeId u = static_cast<NodeId>(rng.UniformIndex(kNodes));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(kNodes - 1));
    if (v >= u) ++v;
    live.push_back(Edge{u, v});
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, live.back()});
  }
  return events;
}

/// Initial graph: a sparse random one, so the stream also repairs
/// segments generated before it (not only ones grown during it).
DiGraph InitialGraph(uint64_t seed) {
  Rng rng(seed ^ 0xABCDEFULL);
  DiGraph g(kNodes);
  for (int i = 0; i < 4; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformIndex(kNodes));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(kNodes - 1));
    if (v >= u) ++v;
    EXPECT_TRUE(g.AddEdge(u, v).ok());
  }
  return g;
}

enum class Path { kSingleEvent, kBatched };

template <typename Engine>
void ApplyStream(Engine* engine, const std::vector<EdgeEvent>& events,
                 Path path, uint64_t seed) {
  if (path == Path::kSingleEvent) {
    for (const EdgeEvent& e : events) ASSERT_TRUE(engine->ApplyEvent(e).ok());
    return;
  }
  // Mixed-kind windows of 1..7 events: same-kind runs become batches
  // with multi-edge pivot groups.
  Rng sizes(seed * 7 + 1);
  for (std::size_t i = 0; i < events.size();) {
    const std::size_t len =
        std::min(events.size() - i, 1 + sizes.UniformIndex(7));
    ASSERT_TRUE(engine
                    ->ApplyEvents(std::span<const EdgeEvent>(
                        events.data() + i, len))
                    .ok());
    i += len;
  }
}

template <typename Engine>
void CheckLaw(Path path) {
  constexpr uint32_t kDirs =
      std::is_same_v<Engine, IncrementalSalsa> ? 2 : 1;
  for (uint64_t seed : kSeeds) {
    MonteCarloOptions opts;
    opts.walks_per_node = kWalksPerNode;
    opts.epsilon = kEpsilon;
    opts.seed = seed;
    Engine engine(InitialGraph(seed), opts);
    ApplyStream(&engine, Stream(seed), path, seed);
    engine.CheckConsistency();
    const DiGraph& g = engine.graph();
    const auto& store = engine.walk_store();

    for (NodeId s = 0; s < kNodes; ++s) {
      for (uint32_t dir0 = 0; dir0 < kDirs; ++dir0) {
        const Law law = ExactLaw(g, s, dir0, kDirs);
        Samples got;
        for (std::size_t k = 0; k < kWalksPerNode; ++k) {
          const auto seg = store.GetSegment(s, dir0 * kWalksPerNode + k);
          const std::size_t last = seg.size() - 1;
          ++got.end[seg.node(last) * 3 + static_cast<int>(seg.end())];
          ++got.length[std::min(last, kLengthCap - 1)];
          ++got.first[seg.size() == 1 ? kNodes : seg.node(1)];
        }
        const struct {
          const char* name;
          const std::vector<int64_t>& observed;
          const std::vector<double>& probs;
        } stats[] = {{"endpoint x end reason", got.end, law.end},
                     {"length", got.length, law.length},
                     {"first hop", got.first, law.first}};
        for (const auto& st : stats) {
          const double p = ChiSquarePValue(st.observed, st.probs);
          EXPECT_GT(p, kAlpha)
              << st.name << " law violated: seed " << seed << " source "
              << s << " start direction " << dir0 << " (p = " << p << ")";
        }
      }
    }
  }
}

TEST(RepairLawTest, GammaQMatchesKnownChiSquareQuantiles) {
  // chi2(1) at 3.841 and chi2(10) at 18.307 are the 5% points.
  EXPECT_NEAR(GammaQ(0.5, 3.841459 / 2), 0.05, 1e-5);
  EXPECT_NEAR(GammaQ(5.0, 18.307038 / 2), 0.05, 1e-5);
  EXPECT_NEAR(GammaQ(2.0, 0.0), 1.0, 1e-12);
}

TEST(RepairLawTest, ExactLawIsNormalized) {
  const DiGraph g = InitialGraph(kSeeds[0]);
  for (uint32_t dirs : {1u, 2u}) {
    for (uint32_t dir0 = 0; dir0 < dirs; ++dir0) {
      const Law law = ExactLaw(g, 0, dir0, dirs);
      double e = 0, l = 0, f = 0;
      for (double p : law.end) e += p;
      for (double p : law.length) l += p;
      for (double p : law.first) f += p;
      EXPECT_NEAR(e, 1.0, 1e-12);
      EXPECT_NEAR(l, 1.0, 1e-12);
      EXPECT_NEAR(f, 1.0, 1e-12);
    }
  }
}

TEST(RepairLawTest, PageRankSingleEventRepairsMatchExactLaw) {
  CheckLaw<IncrementalPageRank>(Path::kSingleEvent);
}
TEST(RepairLawTest, PageRankBatchedRepairsMatchExactLaw) {
  CheckLaw<IncrementalPageRank>(Path::kBatched);
}
TEST(RepairLawTest, SalsaSingleEventRepairsMatchExactLaw) {
  CheckLaw<IncrementalSalsa>(Path::kSingleEvent);
}
TEST(RepairLawTest, SalsaBatchedRepairsMatchExactLaw) {
  CheckLaw<IncrementalSalsa>(Path::kBatched);
}

}  // namespace
}  // namespace fastppr
