#include "fastppr/store/checkpoint.h"

#include <cstring>
#include <utility>

#include "fastppr/util/crc32c.h"

namespace fastppr {
namespace {

/// Staging buffer for the small values of the SaveTo chain; a write at
/// least this large skips it and goes to the file directly.
constexpr std::size_t kStageBytes = std::size_t{1} << 20;

template <typename T>
uint8_t* PutPod(uint8_t* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

template <typename T>
T GetPod(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

FramedFileWriter::FramedFileWriter(std::string path, uint64_t magic)
    : path_(std::move(path)), magic_(magic) {
  stage_.reserve(kStageBytes);
  status_ = WritableFile::Open(path_ + ".tmp", &file_);
  if (status_.ok()) {
    // Placeholder: the real header is patched in by Finish().
    const uint8_t zeros[kFrameHeaderSize] = {};
    status_ = file_.Append(zeros, sizeof(zeros));
  }
}

void FramedFileWriter::Bytes(const void* data, std::size_t n) {
  if (!status_.ok() || n == 0) return;
  if (n >= kStageBytes) {
    Flush();
    if (!status_.ok()) return;
    body_crc_ = ExtendCrc32c(body_crc_, data, n);
    body_len_ += n;
    status_ = file_.Append(data, n);
    return;
  }
  if (stage_.size() + n > kStageBytes) Flush();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  stage_.insert(stage_.end(), p, p + n);
}

void FramedFileWriter::Flush() {
  if (!status_.ok() || stage_.empty()) return;
  body_crc_ = ExtendCrc32c(body_crc_, stage_.data(), stage_.size());
  body_len_ += stage_.size();
  status_ = file_.Append(stage_.data(), stage_.size());
  stage_.clear();
}

Status FramedFileWriter::Finish() {
  Flush();
  uint8_t header[kFrameHeaderSize];
  uint8_t* p = PutPod(header, magic_);
  p = PutPod(p, kCheckpointVersion);
  p = PutPod(p, body_len_);
  PutPod(p, body_crc_);
  if (status_.ok()) status_ = file_.WriteAt(0, header, sizeof(header));
  if (status_.ok()) status_ = file_.Sync();
  if (status_.ok()) status_ = file_.Close();
  if (status_.ok()) status_ = AtomicReplace(path_ + ".tmp", path_);
  return status_;
}

Status WriteFramedFile(const std::string& path, uint64_t magic,
                       const std::vector<uint8_t>& body) {
  FramedFileWriter w(path, magic);
  w.Bytes(body.data(), body.size());
  return w.Finish();
}

Status FramedFileReader::Open(const std::string& path, uint64_t magic,
                              FramedFileReader* out) {
  MappedFile file;
  FASTPPR_RETURN_IF_ERROR(MappedFile::Open(path, kFrameHeaderSize, &file));
  const uint8_t* bytes = file.data();
  if (GetPod<uint64_t>(bytes) != magic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (GetPod<uint32_t>(bytes + sizeof(uint64_t)) != kCheckpointVersion) {
    return Status::Corruption(path + ": unsupported version");
  }
  const uint64_t body_len =
      GetPod<uint64_t>(bytes + sizeof(uint64_t) + sizeof(uint32_t));
  // Exact-size match: rename atomicity means the file is complete, so
  // any disagreement (including a flipped bit in body_len itself) is
  // corruption, never a tear.
  if (body_len != file.size() - kFrameHeaderSize) {
    return Status::Corruption(path + ": length field disagrees with file");
  }
  const uint32_t body_crc =
      GetPod<uint32_t>(bytes + kFrameHeaderSize - sizeof(uint32_t));
  if (body_crc != Crc32c(bytes + kFrameHeaderSize, body_len)) {
    return Status::Corruption(path + ": body checksum mismatch");
  }
  out->file_ = std::move(file);
  return Status::OK();
}

}  // namespace fastppr
