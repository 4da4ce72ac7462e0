#ifndef FASTPPR_STORE_CHECKPOINT_H_
#define FASTPPR_STORE_CHECKPOINT_H_

// Atomic checkpoint files for the durability layer (DESIGN.md §8).
//
// A checkpoint is one framed file holding the engine's complete state —
// the DurableManifest followed by the flat SoA arena dump produced by
// the SaveTo chain (ShardedEngine -> SocialStore/AdjacencySlab -> per
// shard engine -> walk-store slab pools). It is written to `<path>.tmp`,
// fsync'd, atomically renamed over `path`, and the parent directory
// fsync'd — so the file named `path` is always a COMPLETE checkpoint:
// old or new, never torn. Torn-tail tolerance therefore belongs to the
// WAL alone; here every deviation (short file, bad magic, length
// mismatch, checksum mismatch) is loud Corruption.
//
// Layout: u64 magic | u32 version | u64 body_len | u32 body_crc | body.
// body_len must equal the file size minus the 24-byte header exactly,
// so a flipped bit in the length field is caught even though it is not
// under the body CRC.
//
// Writing streams: the SaveTo chain feeds a FramedFileWriter, which
// stages small values in a fixed buffer, hands large columns straight
// to the file, and extends the body CRC as bytes pass; the header is
// patched in place at the end. Reading maps the file: FramedFileReader
// checks the frame and the body CRC before the caller parses a byte,
// and the caller parses straight from the mapping.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fastppr/store/arena_io.h"
#include "fastppr/util/file_io.h"
#include "fastppr/util/status.h"

namespace fastppr {

inline constexpr uint64_t kCheckpointMagic = 0x4641535443484B31ull;  // FASTCHK1
inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr std::size_t kFrameHeaderSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) +
    sizeof(uint32_t);  // 24

/// Canonical file names inside a durability directory.
inline constexpr const char* kCheckpointFileName = "checkpoint.fppr";
inline constexpr const char* kWalFileName = "wal.log";

/// Writes one framed file in a single pass, as a sink of the SaveTo
/// chain (Pod/Vec from ArenaSink, plus Bytes). The body goes to
/// `<path>.tmp` behind a header placeholder; Finish() patches the
/// header, fsyncs, closes and atomically renames over `path`, then
/// fsyncs the parent directory. A crash at ANY byte — the header patch
/// included — leaves `path` either the previous complete file or the
/// new complete file (a stale `<path>.tmp` may remain; readers ignore
/// it and the next write truncates it). Errors are sticky: the first
/// one turns later writes into no-ops and is returned by Finish().
class FramedFileWriter : public ArenaSink<FramedFileWriter> {
 public:
  FramedFileWriter(std::string path, uint64_t magic);

  void Bytes(const void* data, std::size_t n);

  /// Completes the file; returns the first error of the whole write.
  Status Finish();

 private:
  void Flush();

  std::string path_;
  uint64_t magic_;
  WritableFile file_;
  std::vector<uint8_t> stage_;
  uint64_t body_len_ = 0;
  uint32_t body_crc_ = 0;
  Status status_;
};

/// Writes `body` as one framed file (the FramedFileWriter protocol).
Status WriteFramedFile(const std::string& path, uint64_t magic,
                       const std::vector<uint8_t>& body);

/// A framed file mapped read-only and validated at Open: magic,
/// version, length and the body CRC are all checked before any caller
/// parses the body. The mapping lives as long as the reader. A file
/// only ever replaced by rename (as FramedFileWriter does) cannot be
/// truncated under it: the mapping pins the old inode.
class FramedFileReader {
 public:
  /// NotFound if absent; Corruption on any frame or checksum violation
  /// (a file shorter than the header is rejected before it is mapped).
  static Status Open(const std::string& path, uint64_t magic,
                     FramedFileReader* out);

  /// The verified body; valid after a successful Open.
  std::span<const uint8_t> body() const {
    return {file_.data() + kFrameHeaderSize,
            file_.size() - kFrameHeaderSize};
  }
  ArenaReader Reader() const {
    return ArenaReader(body().data(), body().size());
  }

 private:
  MappedFile file_;
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_CHECKPOINT_H_
