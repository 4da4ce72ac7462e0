#include "fastppr/store/walk_store_io.h"

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "fastppr/store/arena_io.h"

namespace fastppr {

namespace {

constexpr uint64_t kWalkSnapshotMagic = 0x464153545050521AULL;

/// Header: R, epsilon, n, segment count.
constexpr std::size_t kHeaderBytes = 3 * sizeof(uint64_t) + sizeof(double);

/// Smallest encoding of one segment: end reason, length, one node.
constexpr uint64_t kMinSegmentBytes =
    sizeof(uint8_t) + sizeof(uint64_t) + sizeof(NodeId);

}  // namespace

Status SaveWalkStore(const WalkStore& store, const std::string& path) {
  if (store.shard_count() > 1) {
    // A shard store has empty rows for unowned sources; the snapshot
    // format (and InitFromSegments) describes full stores only. Fail at
    // save time, not at restore time.
    return Status::InvalidArgument(
        "cannot snapshot a sharded walk store (shard "
        "stores hold only their owned segments)");
  }
  FramedFileWriter w(path, kWalkSnapshotMagic);
  w.Pod(static_cast<uint64_t>(store.walks_per_node()));
  w.Pod(store.epsilon());
  w.Pod(static_cast<uint64_t>(store.num_nodes()));
  w.Pod(static_cast<uint64_t>(store.num_segments()));

  for (NodeId u = 0; u < store.num_nodes(); ++u) {
    for (std::size_t k = 0; k < store.walks_per_node(); ++k) {
      const WalkStore::SegmentView seg = store.GetSegment(u, k);
      w.Pod(static_cast<uint8_t>(seg.end()));
      w.Pod(static_cast<uint64_t>(seg.size()));
      for (std::size_t p = 0; p < seg.size(); ++p) {
        w.Pod(seg.node(p));
      }
    }
  }
  return w.Finish();
}

Status WalkSnapshotReader::Open(const std::string& path,
                                WalkSnapshotReader* out) {
  WalkSnapshotReader snap;
  snap.path_ = path;
  FASTPPR_RETURN_IF_ERROR(
      FramedFileReader::Open(path, kWalkSnapshotMagic, &snap.file_));
  ArenaReader r = snap.file_.Reader();
  if (!r.Pod(&snap.walks_per_node_) || !r.Pod(&snap.epsilon_) ||
      !r.Pod(&snap.num_nodes_) || !r.Pod(&snap.num_segments_)) {
    return r.ToStatus(path);
  }
  if (snap.num_nodes_ >= kInvalidNode) {
    return Status::Corruption("snapshot node count exceeds the id space");
  }
  if (snap.walks_per_node_ != 0 &&
      snap.num_nodes_ >
          std::numeric_limits<uint64_t>::max() / snap.walks_per_node_) {
    return Status::Corruption("snapshot segment count overflows");
  }
  if (snap.num_segments_ != snap.num_nodes_ * snap.walks_per_node_) {
    return Status::Corruption("inconsistent segment count");
  }
  if (snap.num_segments_ > r.remaining() / kMinSegmentBytes) {
    return Status::Corruption("snapshot body too short for its segments");
  }
  *out = std::move(snap);
  return Status::OK();
}

Status WalkSnapshotReader::LoadInto(const DiGraph& g,
                                    WalkStore* store) const {
  if (num_nodes_ != g.num_nodes()) {
    return Status::InvalidArgument(
        "snapshot node count does not match the graph");
  }
  // Open parsed (and bounds-checked) the header; start past it.
  const std::span<const uint8_t> segments =
      file_.body().subspan(kHeaderBytes);
  ArenaReader r(segments.data(), segments.size());

  std::vector<std::vector<NodeId>> paths(num_segments_);
  std::vector<WalkStore::EndReason> ends(num_segments_,
                                         WalkStore::EndReason::kReset);
  for (uint64_t s = 0; s < num_segments_; ++s) {
    uint8_t end = 0;
    uint64_t length = 0;
    if (!r.Pod(&end) || !r.Pod(&length)) return r.ToStatus(path_);
    if (end > 1) return Status::Corruption("bad end reason");
    if (length == 0 || length > r.remaining() / sizeof(NodeId)) {
      return Status::Corruption("implausible segment length");
    }
    ends[s] = static_cast<WalkStore::EndReason>(end);
    paths[s].resize(static_cast<std::size_t>(length));
    for (uint64_t p = 0; p < length; ++p) {
      if (!r.Pod(&paths[s][p])) return r.ToStatus(path_);
    }
  }
  if (!r.AtEnd()) return r.ToStatus(path_);
  // Derive a fresh RNG stream for post-restore updates from the snapshot
  // contents (any seed is valid; updates only need fresh randomness).
  const uint64_t seed =
      kWalkSnapshotMagic ^ num_segments_ ^ (num_nodes_ << 17);
  return store->InitFromSegments(g, walks_per_node_, epsilon_, seed, paths,
                                 ends);
}

Status LoadWalkStore(const std::string& path, const DiGraph& g,
                     WalkStore* store) {
  WalkSnapshotReader snap;
  FASTPPR_RETURN_IF_ERROR(WalkSnapshotReader::Open(path, &snap));
  return snap.LoadInto(g, store);
}

}  // namespace fastppr
