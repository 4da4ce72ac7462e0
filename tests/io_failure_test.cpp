// Write-failure propagation tests (satellite of DESIGN.md §8): every
// writer in the persistence paths must surface a failing sink as a
// Status, never report success for a short file. /dev/full is the
// canonical always-ENOSPC sink on Linux; each test skips gracefully
// where the device is unavailable (non-Linux CI).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/graph/graph_io.h"
#include "fastppr/util/csv_writer.h"
#include "fastppr/util/file_io.h"

namespace fastppr {
namespace {

bool HaveDevFull() {
  std::ofstream probe("/dev/full");
  return probe.is_open();
}

TEST(IoFailureTest, WritableFileAppendReportsEnospc) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full unavailable";
  WritableFile f;
  ASSERT_TRUE(WritableFile::Open("/dev/full", &f).ok());
  std::vector<uint8_t> block(4096, 0xAB);
  Status s = f.Append(block.data(), block.size());
  if (s.ok()) s = f.Close();  // deferred ENOSPC must surface at close
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(IoFailureTest, WriteSnapEdgeListReportsEnospc) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full unavailable";
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 4096; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  const Status s = WriteSnapEdgeList("/dev/full", edges);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(IoFailureTest, CsvWriterFinishReportsEnospc) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full unavailable";
  CsvWriter csv;
  ASSERT_TRUE(CsvWriter::Open("/dev/full", {"a", "b"}, &csv).ok());
  for (int i = 0; i < 4096; ++i) {
    csv.AddRow({std::to_string(i), std::to_string(i * 2)});
  }
  const Status s = csv.Finish();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // Finish is idempotent: the verdict must not change on re-ask.
  EXPECT_TRUE(csv.Finish().IsIOError());
}

TEST(IoFailureTest, CsvWriterFinishOkOnRealFile) {
  const std::string path = testing::TempDir() + "/csv_finish_ok.csv";
  CsvWriter csv;
  ASSERT_TRUE(CsvWriter::Open(path, {"x"}, &csv).ok());
  csv.AddRow({"1"});
  EXPECT_TRUE(csv.Finish().ok());
  EXPECT_EQ(csv.rows_written(), 1u);
  std::remove(path.c_str());
}

TEST(IoFailureTest, WritableFileToUnwritablePathFailsLoudly) {
  WritableFile f;
  const Status s = WritableFile::Open("/no/such/dir/file.bin", &f);
  // ENOENT maps to NotFound, anything else to IOError; either way the
  // open must not claim success.
  EXPECT_FALSE(s.ok()) << s.ToString();
  EXPECT_FALSE(f.is_open());
}

// The read side: ReadFileBytes sizes its buffer from fstat, but must not
// trust that size. A procfs file reports st_size 0 and still has bytes,
// which is the "file grew after the fstat" case made deterministic.
TEST(IoFailureTest, ReadFileBytesReadsPastTheFstatSize) {
  std::vector<uint8_t> bytes;
  const Status s = ReadFileBytes("/proc/self/status", &bytes);
  if (s.IsNotFound()) GTEST_SKIP() << "procfs unavailable";
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_GT(bytes.size(), 5u);
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 5), "Name:");
}

TEST(IoFailureTest, ReadFileBytesRoundTripsAndReportsNotFound) {
  const std::string path = testing::TempDir() + "/read_file_bytes.bin";
  std::vector<uint8_t> data(100000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131);
  }
  {
    WritableFile f;
    ASSERT_TRUE(WritableFile::Open(path, &f).ok());
    ASSERT_TRUE(f.Append(data.data(), data.size()).ok());
    ASSERT_TRUE(f.Close().ok());
  }
  std::vector<uint8_t> read = {1, 2, 3};  // stale contents are replaced
  ASSERT_TRUE(ReadFileBytes(path, &read).ok());
  EXPECT_EQ(read, data);
  std::remove(path.c_str());
  EXPECT_TRUE(ReadFileBytes(path, &read).IsNotFound());
}

}  // namespace
}  // namespace fastppr
