#ifndef FASTPPR_STORE_WALK_STORE_IO_H_
#define FASTPPR_STORE_WALK_STORE_IO_H_

#include <cstdint>
#include <string>

#include "fastppr/graph/digraph.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Logical (graph-revalidated) persistence for the PageRank store. A
/// production deployment snapshots the walk segments so a restart
/// resumes incremental maintenance instead of paying the nR/eps
/// initialization again.
///
/// The file is a framed checkpoint (store/checkpoint.h): a CRC32C over
/// the whole body, written tmp + fsync + atomic rename, so the file at
/// `path` is always complete and any bit flip or truncation is loud
/// Corruption. The body is an arena-encoded logical description — R,
/// epsilon, n, then per segment [end reason, length, node ids]. The
/// inverted visit index and the counters are rebuilt on load (they are
/// derived state), and every stored hop is re-validated against the
/// provided graph, so a snapshot can only be loaded against the graph
/// it was taken from. This differs from the raw checkpoint path
/// (WalkStore::SaveTo/LoadFrom), which restores the slab columns
/// bit-for-bit without a graph.
Status SaveWalkStore(const WalkStore& store, const std::string& path);

/// Loads a snapshot saved by SaveWalkStore. `g` must be the same graph
/// the snapshot was taken against (hop validation fails with Corruption
/// otherwise). NotFound if `path` does not exist.
Status LoadWalkStore(const std::string& path, const DiGraph& g,
                     WalkStore* store);

/// A snapshot opened for loading in two steps, so an engine loader can
/// size its graph from the header (isolated trailing nodes included)
/// before the segments are parsed — from one mapping, checksummed once.
/// Open rejects a header the body cannot back: n at or past the id
/// space, a segment count other than n·R, or fewer body bytes than n·R
/// minimal segments need. A crafted header therefore fails before
/// anything is sized from it.
class WalkSnapshotReader {
 public:
  /// NotFound if absent; Corruption as described above.
  static Status Open(const std::string& path, WalkSnapshotReader* out);

  uint64_t num_nodes() const { return num_nodes_; }

  /// Parses the segments into `store`, validating every hop against
  /// `g` (LoadWalkStore's contract).
  Status LoadInto(const DiGraph& g, WalkStore* store) const;

 private:
  std::string path_;
  FramedFileReader file_;
  uint64_t walks_per_node_ = 0;
  double epsilon_ = 0.0;
  uint64_t num_nodes_ = 0;
  uint64_t num_segments_ = 0;
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_WALK_STORE_IO_H_
