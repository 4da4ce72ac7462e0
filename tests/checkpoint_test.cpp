// Framed checkpoint file tests (src/fastppr/store/checkpoint.{h,cc}).
// A checkpoint reaches its final name only via atomic rename, so unlike
// the WAL there is no torn-tail tolerance: ANY deviation — truncation,
// wrong magic, length mismatch, any single flipped bit — must be loud
// Corruption.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/store/checkpoint.h"
#include "fastppr/util/crc32c.h"
#include "fastppr/util/file_io.h"

namespace fastppr {
namespace {

/// Opens `path` through the mapped reader and copies its body out.
Status ReadFramedFile(const std::string& path, uint64_t magic,
                      std::vector<uint8_t>* body) {
  FramedFileReader reader;
  FASTPPR_RETURN_IF_ERROR(FramedFileReader::Open(path, magic, &reader));
  body->assign(reader.body().begin(), reader.body().end());
  return Status::OK();
}

std::vector<uint8_t> MakeBody() {
  std::vector<uint8_t> body(257);
  std::iota(body.begin(), body.end(), 0);
  return body;
}

TEST(CheckpointTest, RoundTrips) {
  const std::string path = testing::TempDir() + "/ckpt_rt.fppr";
  const std::vector<uint8_t> body = MakeBody();
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, body).ok());

  std::vector<uint8_t> read;
  const Status s = ReadFramedFile(path, kCheckpointMagic, &read);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(read, body);
  // The tmp staging file must not survive a successful write.
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(CheckpointTest, EmptyBodyRoundTrips) {
  const std::string path = testing::TempDir() + "/ckpt_empty.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, {}).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFramedFile(path, kCheckpointMagic, &read).ok());
  EXPECT_TRUE(read.empty());
}

TEST(CheckpointTest, OverwriteReplacesAtomically) {
  const std::string path = testing::TempDir() + "/ckpt_overwrite.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, {1, 2, 3}).ok());
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, {9, 9}).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFramedFile(path, kCheckpointMagic, &read).ok());
  EXPECT_EQ(read, (std::vector<uint8_t>{9, 9}));
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  std::vector<uint8_t> read;
  const Status s = ReadFramedFile(testing::TempDir() + "/ckpt_nope.fppr",
                                  kCheckpointMagic, &read);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST(CheckpointTest, WrongMagicIsCorruption) {
  const std::string path = testing::TempDir() + "/ckpt_magic.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());
  std::vector<uint8_t> read;
  const Status s = ReadFramedFile(path, kCheckpointMagic ^ 1, &read);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CheckpointTest, EveryTruncationIsCorruption) {
  const std::string path = testing::TempDir() + "/ckpt_trunc.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());
  std::vector<uint8_t> full;
  ASSERT_TRUE(ReadFileBytes(path, &full).ok());

  const std::string cut = testing::TempDir() + "/ckpt_trunc_cut.fppr";
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    {
      WritableFile f;
      ASSERT_TRUE(WritableFile::Open(cut, &f).ok());
      ASSERT_TRUE(f.Append(full.data(), keep).ok());
      ASSERT_TRUE(f.Close().ok());
    }
    std::vector<uint8_t> read;
    const Status s = ReadFramedFile(cut, kCheckpointMagic, &read);
    ASSERT_TRUE(s.IsCorruption())
        << "truncated to " << keep << ": " << s.ToString();
  }
}

// The satellite-c oracle for the checkpoint side: any single flipped
// bit anywhere in the file is Corruption.
TEST(CheckpointTest, EveryBitFlipIsCorruption) {
  const std::string path = testing::TempDir() + "/ckpt_flip.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());
  std::vector<uint8_t> full;
  ASSERT_TRUE(ReadFileBytes(path, &full).ok());

  const std::string flipped = testing::TempDir() + "/ckpt_flip_cut.fppr";
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> copy = full;
      copy[byte] ^= static_cast<uint8_t>(1u << bit);
      {
        WritableFile f;
        ASSERT_TRUE(WritableFile::Open(flipped, &f).ok());
        ASSERT_TRUE(f.Append(copy.data(), copy.size()).ok());
        ASSERT_TRUE(f.Close().ok());
      }
      std::vector<uint8_t> read;
      const Status s = ReadFramedFile(flipped, kCheckpointMagic, &read);
      ASSERT_TRUE(s.IsCorruption())
          << "bit " << bit << " of byte " << byte << ": " << s.ToString();
    }
  }
}

/// The frame as the format defines it, built by hand: magic | version |
/// body_len | crc32c(body) | body.
std::vector<uint8_t> FrameOf(uint64_t magic,
                             const std::vector<uint8_t>& body) {
  std::vector<uint8_t> out(kFrameHeaderSize);
  const uint64_t len = body.size();
  const uint32_t crc = Crc32c(body.data(), body.size());
  std::memcpy(out.data(), &magic, 8);
  std::memcpy(out.data() + 8, &kCheckpointVersion, 4);
  std::memcpy(out.data() + 12, &len, 8);
  std::memcpy(out.data() + 20, &crc, 4);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// Small values go through the staging buffer, columns of at least its
// size straight to the file; the file must be the same frame either way.
TEST(CheckpointTest, StreamedWriterProducesTheBufferFrame) {
  const std::string path = testing::TempDir() + "/ckpt_stream.fppr";
  std::vector<uint8_t> big(3u << 20);
  std::iota(big.begin(), big.end(), 7);
  std::vector<uint8_t> expected_body;
  FramedFileWriter w(path, kCheckpointMagic);
  for (uint32_t i = 0; i < 300000; ++i) {  // > 1 MiB of small writes
    w.Pod(i);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&i);
    expected_body.insert(expected_body.end(), p, p + sizeof(i));
  }
  w.Vec(big);
  const uint64_t count = big.size();
  const uint8_t* c = reinterpret_cast<const uint8_t*>(&count);
  expected_body.insert(expected_body.end(), c, c + sizeof(count));
  expected_body.insert(expected_body.end(), big.begin(), big.end());
  w.Pod(uint8_t{0xAB});
  expected_body.push_back(0xAB);
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));

  std::vector<uint8_t> file;
  ASSERT_TRUE(ReadFileBytes(path, &file).ok());
  EXPECT_EQ(file, FrameOf(kCheckpointMagic, expected_body));
}

// The header patch is a write like any other: a crash that lands in it
// must leave the previous file in place, never a half-patched one.
TEST(CheckpointTest, CrashInsideHeaderPatchKeepsPreviousFile) {
  const std::string path = testing::TempDir() + "/ckpt_patch_crash.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, {1, 2, 3}).ok());
  const std::vector<uint8_t> body = MakeBody();
  // Budget: the placeholder and the body, plus half of the header patch.
  const int64_t budget = static_cast<int64_t>(
      kFrameHeaderSize + body.size() + kFrameHeaderSize / 2);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    SetCrashAfterBytesForTesting(budget);
    (void)WriteFramedFile(path, kCheckpointMagic, body);
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), kCrashInjectionExitCode);

  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFramedFile(path, kCheckpointMagic, &read).ok());
  EXPECT_EQ(read, (std::vector<uint8_t>{1, 2, 3}));
  // The staging file holds the whole body behind a torn header.
  std::vector<uint8_t> tmp;
  ASSERT_TRUE(ReadFileBytes(path + ".tmp", &tmp).ok());
  EXPECT_EQ(tmp.size(), kFrameHeaderSize + body.size());
  EXPECT_TRUE(ReadFramedFile(path + ".tmp", kCheckpointMagic, &read)
                  .IsCorruption());
}

}  // namespace
}  // namespace fastppr
