#include "fastppr/store/walk_store_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "fastppr/graph/generators.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

DiGraph BuildGraph(std::size_t n, const std::vector<Edge>& edges) {
  DiGraph g(n);
  for (const Edge& e : edges) EXPECT_TRUE(g.AddEdge(e.src, e.dst).ok());
  return g;
}

TEST(WalkStoreIoTest, SaveLoadRoundtrip) {
  Rng rng(1);
  auto edges = ErdosRenyi(50, 400, &rng);
  DiGraph g = BuildGraph(50, edges);
  WalkStore store;
  store.Init(g, 8, 0.2, 2);

  const std::string path = testing::TempDir() + "/walk_store_rt.bin";
  ASSERT_TRUE(SaveWalkStore(store, path).ok());

  WalkStore loaded;
  ASSERT_TRUE(LoadWalkStore(path, g, &loaded).ok());
  loaded.CheckConsistency(g);
  EXPECT_EQ(loaded.walks_per_node(), 8u);
  EXPECT_DOUBLE_EQ(loaded.epsilon(), 0.2);
  EXPECT_EQ(loaded.TotalVisits(), store.TotalVisits());
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(loaded.VisitCount(v), store.VisitCount(v));
    EXPECT_EQ(loaded.StepVisitCount(v), store.StepVisitCount(v));
    EXPECT_EQ(loaded.DanglingCount(v), store.DanglingCount(v));
  }
  std::remove(path.c_str());
}

TEST(WalkStoreIoTest, UpdatesContinueAfterLoad) {
  Rng rng(3);
  auto edges = ErdosRenyi(40, 300, &rng);
  DiGraph g = BuildGraph(40, edges);
  WalkStore store;
  store.Init(g, 5, 0.2, 4);
  const std::string path = testing::TempDir() + "/walk_store_cont.bin";
  ASSERT_TRUE(SaveWalkStore(store, path).ok());

  WalkStore loaded;
  ASSERT_TRUE(LoadWalkStore(path, g, &loaded).ok());
  Rng update_rng(5);
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(update_rng.UniformIndex(40));
    NodeId v = static_cast<NodeId>(update_rng.UniformIndex(40));
    if (u == v) v = (v + 1) % 40;
    ASSERT_TRUE(g.AddEdge(u, v).ok());
    loaded.OnEdgeInserted(g, u, v, &update_rng);
  }
  loaded.CheckConsistency(g);
}

TEST(WalkStoreIoTest, LoadAgainstWrongGraphFails) {
  Rng rng(6);
  auto edges = ErdosRenyi(30, 200, &rng);
  DiGraph g = BuildGraph(30, edges);
  WalkStore store;
  store.Init(g, 4, 0.25, 7);
  const std::string path = testing::TempDir() + "/walk_store_wrong.bin";
  ASSERT_TRUE(SaveWalkStore(store, path).ok());

  // Different node count.
  DiGraph other(31);
  WalkStore loaded;
  EXPECT_TRUE(LoadWalkStore(path, other, &loaded).IsInvalidArgument());

  // Same node count, different edges: hop validation must reject.
  DiGraph empty(30);
  EXPECT_TRUE(LoadWalkStore(path, empty, &loaded).IsCorruption());
  std::remove(path.c_str());
}

TEST(WalkStoreIoTest, MissingFileIsNotFound) {
  DiGraph g(3);
  WalkStore loaded;
  EXPECT_TRUE(LoadWalkStore("/no/such/file.bin", g, &loaded).IsNotFound());
}

TEST(WalkStoreIoTest, ReaderExposesNodeCountThenLoads) {
  Rng rng(11);
  auto edges = ErdosRenyi(25, 150, &rng);
  DiGraph g = BuildGraph(25, edges);
  WalkStore store;
  store.Init(g, 2, 0.2, 12);
  const std::string path = testing::TempDir() + "/walk_store_peek.bin";
  ASSERT_TRUE(SaveWalkStore(store, path).ok());

  WalkSnapshotReader snap;
  ASSERT_TRUE(WalkSnapshotReader::Open(path, &snap).ok());
  EXPECT_EQ(snap.num_nodes(), 25u);
  WalkStore loaded;
  ASSERT_TRUE(snap.LoadInto(g, &loaded).ok());
  EXPECT_EQ(loaded.TotalVisits(), store.TotalVisits());
  EXPECT_TRUE(
      WalkSnapshotReader::Open("/no/such/file.bin", &snap).IsNotFound());
  std::remove(path.c_str());
}

// The snapshot now rides the framed-file machinery: any single flipped
// bit anywhere in the file must surface as Corruption.
TEST(WalkStoreIoTest, EveryBitFlipIsCorruption) {
  Rng rng(13);
  auto edges = ErdosRenyi(10, 40, &rng);
  DiGraph g = BuildGraph(10, edges);
  WalkStore store;
  store.Init(g, 1, 0.3, 14);
  const std::string path = testing::TempDir() + "/walk_store_flip.bin";
  ASSERT_TRUE(SaveWalkStore(store, path).ok());

  std::vector<char> full;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    full.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(full.data(), static_cast<std::streamsize>(full.size()));
  }
  const std::string flipped = testing::TempDir() + "/walk_store_flip2.bin";
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> copy = full;
      copy[byte] = static_cast<char>(copy[byte] ^ (1 << bit));
      {
        std::ofstream out(flipped, std::ios::binary | std::ios::trunc);
        out.write(copy.data(), static_cast<std::streamsize>(copy.size()));
      }
      WalkStore loaded;
      const Status s = LoadWalkStore(flipped, g, &loaded);
      ASSERT_TRUE(s.IsCorruption())
          << "bit " << bit << " of byte " << byte << ": " << s.ToString();
    }
  }
  std::remove(path.c_str());
  std::remove(flipped.c_str());
}

TEST(WalkStoreIoTest, GarbageFileIsCorruption) {
  const std::string path = testing::TempDir() + "/walk_store_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a snapshot";
  }
  DiGraph g(3);
  WalkStore loaded;
  EXPECT_TRUE(LoadWalkStore(path, g, &loaded).IsCorruption());
  std::remove(path.c_str());
}

TEST(WalkStoreIoTest, TruncatedFileIsCorruption) {
  Rng rng(8);
  auto edges = ErdosRenyi(20, 120, &rng);
  DiGraph g = BuildGraph(20, edges);
  WalkStore store;
  store.Init(g, 3, 0.2, 9);
  const std::string path = testing::TempDir() + "/walk_store_trunc.bin";
  ASSERT_TRUE(SaveWalkStore(store, path).ok());
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<char> data(static_cast<std::size_t>(size) / 2);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  WalkStore loaded;
  EXPECT_TRUE(LoadWalkStore(path, g, &loaded).IsCorruption());
  std::remove(path.c_str());
}

TEST(InitFromSegmentsTest, RejectsBadInputs) {
  DiGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  WalkStore store;
  using End = WalkStore::EndReason;

  // Wrong count.
  EXPECT_TRUE(store.InitFromSegments(g, 1, 0.2, 1, {{0}}, {End::kReset})
                  .IsInvalidArgument());
  // Wrong source.
  EXPECT_TRUE(store
                  .InitFromSegments(g, 1, 0.2, 1, {{0}, {0}, {2}},
                                    {End::kReset, End::kReset, End::kReset})
                  .IsCorruption());
  // Non-edge hop.
  EXPECT_TRUE(store
                  .InitFromSegments(g, 1, 0.2, 1, {{0, 2}, {1}, {2}},
                                    {End::kReset, End::kReset, End::kReset})
                  .IsCorruption());
  // Dangling claim at a node with out-edges.
  EXPECT_TRUE(store
                  .InitFromSegments(g, 1, 0.2, 1, {{0}, {1}, {2}},
                                    {End::kDangling, End::kReset,
                                     End::kReset})
                  .IsCorruption());
  // A valid configuration loads.
  ASSERT_TRUE(store
                  .InitFromSegments(g, 1, 0.2, 1, {{0, 1}, {1, 2}, {2}},
                                    {End::kReset, End::kReset,
                                     End::kDangling})
                  .ok());
  store.CheckConsistency(g);
  EXPECT_EQ(store.TotalVisits(), 5);
}

}  // namespace
}  // namespace fastppr
