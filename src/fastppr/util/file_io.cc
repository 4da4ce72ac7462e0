#include "fastppr/util/file_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

namespace fastppr {

namespace {

/// Crash budget: bytes that may still be appended process-wide before
/// the injected _exit. Negative = disarmed.
std::atomic<int64_t> g_crash_budget{-1};

Status ErrnoStatus(const std::string& op, const std::string& path) {
  const std::string msg = op + " " + path + ": " + std::strerror(errno);
  if (errno == ENOENT) return Status::NotFound(msg);
  return Status::IOError(msg);
}

/// Writes exactly n bytes to fd — at the file offset if `at` < 0, else
/// at byte `at` — looping over short writes and EINTR.
Status WriteAll(int fd, const char* p, std::size_t n, int64_t at,
                const std::string& path) {
  while (n > 0) {
    const ssize_t w = at < 0 ? ::write(fd, p, n) : ::pwrite(fd, p, n, at);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    if (w == 0) return Status::IOError("short write to " + path);
    p += w;
    n -= static_cast<std::size_t>(w);
    if (at >= 0) at += w;
  }
  return Status::OK();
}

/// Charges a write of n bytes to the crash budget. If the injected kill
/// lands inside it, persists the prefix the kernel would have accepted,
/// then dies without unwinding.
void ChargeCrashBudget(int fd, const char* p, std::size_t n, int64_t at,
                       const std::string& path) {
  const int64_t budget = g_crash_budget.load(std::memory_order_relaxed);
  if (budget < 0) return;
  if (static_cast<uint64_t>(budget) < n) {
    const std::size_t prefix = static_cast<std::size_t>(budget);
    if (prefix > 0) (void)WriteAll(fd, p, prefix, at, path);
    ::_exit(kCrashInjectionExitCode);
  }
  g_crash_budget.store(budget - static_cast<int64_t>(n),
                       std::memory_order_relaxed);
}

}  // namespace

void SetCrashAfterBytesForTesting(int64_t bytes) {
  g_crash_budget.store(bytes, std::memory_order_relaxed);
}

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);  // error path: caller already gave up
}

WritableFile::WritableFile(WritableFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)),
      bytes_written_(other.bytes_written_) {
  other.fd_ = -1;
}

WritableFile& WritableFile::operator=(WritableFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    bytes_written_ = other.bytes_written_;
    other.fd_ = -1;
  }
  return *this;
}

Status WritableFile::Open(const std::string& path, WritableFile* out) {
  Status ignored = out->Close();
  (void)ignored;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  out->fd_ = fd;
  out->path_ = path;
  out->bytes_written_ = 0;
  return Status::OK();
}

Status WritableFile::Append(const void* data, std::size_t n) {
  if (fd_ < 0) return Status::IOError("append to closed file " + path_);
  const char* p = static_cast<const char*>(data);
  ChargeCrashBudget(fd_, p, n, /*at=*/-1, path_);
  FASTPPR_RETURN_IF_ERROR(WriteAll(fd_, p, n, /*at=*/-1, path_));
  bytes_written_ += n;
  return Status::OK();
}

Status WritableFile::WriteAt(uint64_t offset, const void* data,
                             std::size_t n) {
  if (fd_ < 0) return Status::IOError("write to closed file " + path_);
  if (offset > bytes_written_ || n > bytes_written_ - offset) {
    return Status::InvalidArgument("WriteAt past the end of " + path_);
  }
  const char* p = static_cast<const char*>(data);
  const int64_t at = static_cast<int64_t>(offset);
  ChargeCrashBudget(fd_, p, n, at, path_);
  return WriteAll(fd_, p, n, at, path_);
}

Status WritableFile::Sync() {
  if (fd_ < 0) return Status::IOError("sync of closed file " + path_);
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  return Status::OK();
}

Status WritableFile::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return ErrnoStatus("close", path_);
  return Status::OK();
}

Status AtomicReplace(const std::string& tmp_path,
                     const std::string& final_path) {
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename", tmp_path + " -> " + final_path);
  }
  // Make the rename itself durable: fsync the parent directory.
  const std::filesystem::path parent =
      std::filesystem::path(final_path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return ErrnoStatus("open dir", dir);
  const int rc = ::fsync(dfd);
  const int saved_errno = errno;
  ::close(dfd);
  if (rc != 0) {
    errno = saved_errno;
    return ErrnoStatus("fsync dir", dir);
  }
  return Status::OK();
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("fstat", path);
    ::close(fd);
    return s;
  }
  // One spare byte past the fstat size: a read that fills it means the
  // file grew, and the buffer doubles from there.
  out->resize(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t filled = 0;
  for (;;) {
    if (filled == out->size()) out->resize(2 * out->size());
    const ssize_t r =
        ::read(fd, out->data() + filled, out->size() - filled);
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status s = ErrnoStatus("read", path);
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    filled += static_cast<std::size_t>(r);
  }
  ::close(fd);
  out->resize(filled);
  return Status::OK();
}

MappedFile::~MappedFile() { Unmap(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MappedFile::Unmap() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
  addr_ = nullptr;
  size_ = 0;
}

Status MappedFile::Open(const std::string& path, std::size_t min_size,
                        MappedFile* out) {
  out->Unmap();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("fstat", path);
    ::close(fd);
    return s;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < min_size) {
    ::close(fd);
    return Status::Corruption(path + ": shorter than " +
                              std::to_string(min_size) + " bytes");
  }
  if (size == 0) {  // mmap rejects a zero length; nothing to map
    ::close(fd);
    return Status::OK();
  }
  void* addr =
      ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
  const int saved_errno = errno;
  ::close(fd);  // the mapping keeps the inode alive
  if (addr == MAP_FAILED) {
    errno = saved_errno;
    return ErrnoStatus("mmap", path);
  }
  out->addr_ = addr;
  out->size_ = size;
  return Status::OK();
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink", path);
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

}  // namespace fastppr
