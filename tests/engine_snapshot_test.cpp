// Engine-level snapshot/restore: the production restart path — persist
// graph + walk segments, reload, and keep maintaining incrementally.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/util/file_io.h"

namespace fastppr {
namespace {

MonteCarloOptions Opts(std::size_t R, double eps, uint64_t seed) {
  MonteCarloOptions o;
  o.walks_per_node = R;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

std::string SnapshotDir(const char* name) {
  return testing::TempDir() + "/fastppr_snap_" + name;
}

TEST(EngineSnapshotTest, SaveLoadRoundtripPreservesState) {
  Rng rng(1);
  auto edges = ErdosRenyi(60, 500, &rng);
  IncrementalPageRank engine(60, Opts(6, 0.2, 2));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());

  const std::string dir = SnapshotDir("roundtrip");
  ASSERT_TRUE(engine.SaveSnapshot(dir).ok());

  std::unique_ptr<IncrementalPageRank> restored;
  ASSERT_TRUE(
      IncrementalPageRank::LoadSnapshot(dir, Opts(1, 0.5, 3), &restored)
          .ok());
  ASSERT_NE(restored, nullptr);
  restored->CheckConsistency();
  // R and epsilon come from the snapshot, not the options.
  EXPECT_EQ(restored->options().walks_per_node, 6u);
  EXPECT_DOUBLE_EQ(restored->options().epsilon, 0.2);
  EXPECT_EQ(restored->num_nodes(), 60u);
  EXPECT_EQ(restored->num_edges(), engine.num_edges());
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_EQ(restored->walk_store().VisitCount(v),
              engine.walk_store().VisitCount(v));
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineSnapshotTest, MaintenanceContinuesAfterRestore) {
  Rng rng(4);
  auto edges = ErdosRenyi(40, 300, &rng);
  IncrementalPageRank engine(40, Opts(5, 0.2, 5));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());
  const std::string dir = SnapshotDir("continue");
  ASSERT_TRUE(engine.SaveSnapshot(dir).ok());

  std::unique_ptr<IncrementalPageRank> restored;
  ASSERT_TRUE(
      IncrementalPageRank::LoadSnapshot(dir, Opts(5, 0.2, 6), &restored)
          .ok());
  Rng extra(7);
  for (int i = 0; i < 60; ++i) {
    NodeId u = static_cast<NodeId>(extra.UniformIndex(40));
    NodeId v = static_cast<NodeId>(extra.UniformIndex(40));
    if (u == v) v = (v + 1) % 40;
    ASSERT_TRUE(restored->AddEdge(u, v).ok());
  }
  ASSERT_TRUE(restored->RemoveEdge(edges[0].src, edges[0].dst).ok());
  restored->CheckConsistency();
  std::filesystem::remove_all(dir);
}

TEST(EngineSnapshotTest, IsolatedNodesSurviveRoundtrip) {
  // Nodes 8, 9 have no edges at all; the walks snapshot carries the true
  // node count and restore must recover it.
  IncrementalPageRank engine(10, Opts(3, 0.2, 8));
  ASSERT_TRUE(engine.AddEdge(0, 1).ok());
  ASSERT_TRUE(engine.AddEdge(1, 2).ok());
  const std::string dir = SnapshotDir("isolated");
  ASSERT_TRUE(engine.SaveSnapshot(dir).ok());

  std::unique_ptr<IncrementalPageRank> restored;
  ASSERT_TRUE(
      IncrementalPageRank::LoadSnapshot(dir, Opts(3, 0.2, 9), &restored)
          .ok());
  EXPECT_EQ(restored->num_nodes(), 10u);
  restored->CheckConsistency();
  std::filesystem::remove_all(dir);
}

/// Saves the 4-node engine with edges (0,2), (1,2), (2,3), (3,1) and
/// appends `extra_line` to its graph.txt.
std::string SnapshotWithExtraGraphLine(const char* name,
                                       const std::string& extra_line) {
  IncrementalPageRank engine(4, Opts(3, 0.2, 11));
  for (const Edge& e : {Edge{0, 2}, Edge{1, 2}, Edge{2, 3}, Edge{3, 1}}) {
    EXPECT_TRUE(engine.AddEdge(e.src, e.dst).ok());
  }
  const std::string dir = SnapshotDir(name);
  EXPECT_TRUE(engine.SaveSnapshot(dir).ok());
  std::ofstream(dir + "/graph.txt", std::ios::app) << extra_line << "\n";
  return dir;
}

TEST(EngineSnapshotTest, EndpointPastUint32IsCorruptionNotTruncated) {
  // 2^32 would truncate to node 0 in a 32-bit id and load an edge
  // (0, 1) that was never saved.
  const std::string dir =
      SnapshotWithExtraGraphLine("wide_id", "4294967296 1");
  std::unique_ptr<IncrementalPageRank> restored;
  const Status s =
      IncrementalPageRank::LoadSnapshot(dir, Opts(3, 0.2, 12), &restored);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(restored, nullptr);
  std::filesystem::remove_all(dir);
}

TEST(EngineSnapshotTest, EndpointOutsideSnapshotNodeCountIsCorruption) {
  // An endpoint near 2^32 must be rejected against the snapshot's node
  // count before any graph is sized from it; so must one just past n.
  for (const char* line : {"4294967295 0", "4 0"}) {
    const std::string dir = SnapshotWithExtraGraphLine("big_id", line);
    std::unique_ptr<IncrementalPageRank> restored;
    const Status s =
        IncrementalPageRank::LoadSnapshot(dir, Opts(3, 0.2, 13), &restored);
    EXPECT_TRUE(s.IsCorruption()) << line << ": " << s.ToString();
    EXPECT_EQ(restored, nullptr);
    std::filesystem::remove_all(dir);
  }
}

TEST(EngineSnapshotTest, HugeHeaderWithoutSegmentsIsCorruptionBeforeGraph) {
  // A CRC-valid walks.bin whose header claims n = 2^32 - 2 nodes but
  // whose body holds no segments. The header must be rejected against
  // the body size before any graph is sized from n. The directory has
  // no graph.txt at all: the walks file is validated before graph.txt
  // is opened (let alone a 2^32-node graph allocated), so reaching
  // either step would fail this test with IOError, not Corruption.
  IncrementalPageRank engine(4, Opts(1, 0.2, 14));
  const std::string dir = SnapshotDir("huge_header");
  ASSERT_TRUE(engine.SaveSnapshot(dir).ok());
  const std::string walks = dir + "/walks.bin";
  std::vector<uint8_t> real;
  ASSERT_TRUE(ReadFileBytes(walks, &real).ok());
  uint64_t magic = 0;
  std::memcpy(&magic, real.data(), sizeof(magic));
  std::filesystem::remove(dir + "/graph.txt");

  const uint64_t n = (uint64_t{1} << 32) - 2;
  for (const uint64_t num_segments : {n, uint64_t{0}}) {
    // Header: R, epsilon, n, segment count; then nothing.
    const uint64_t walks_per_node = 1;
    const double epsilon = 0.2;
    std::vector<uint8_t> body(32);
    std::memcpy(body.data(), &walks_per_node, 8);
    std::memcpy(body.data() + 8, &epsilon, 8);
    std::memcpy(body.data() + 16, &n, 8);
    std::memcpy(body.data() + 24, &num_segments, 8);
    ASSERT_TRUE(WriteFramedFile(walks, magic, body).ok());

    std::unique_ptr<IncrementalPageRank> restored;
    const Status s =
        IncrementalPageRank::LoadSnapshot(dir, Opts(1, 0.2, 15), &restored);
    EXPECT_TRUE(s.IsCorruption()) << num_segments << ": " << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineSnapshotTest, MissingDirectoryFails) {
  std::unique_ptr<IncrementalPageRank> restored;
  EXPECT_FALSE(IncrementalPageRank::LoadSnapshot("/no/such/dir",
                                                 Opts(3, 0.2, 10),
                                                 &restored)
                   .ok());
}

}  // namespace
}  // namespace fastppr
