// CRC-32C (src/fastppr/util/crc32c.{h,cc}): known answers, the
// run-time-selected path against the slice-by-8 path, and the streaming
// identity every framed file and WAL record relies on.

#include "fastppr/util/crc32c.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/util/random.h"

namespace fastppr {
namespace {

std::vector<uint8_t> RandomBytes(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.NextUint64());
  return out;
}

TEST(Crc32cTest, KnownAnswers) {
  // The standard check value (RFC 3720 appendix B.4 and every CRC-32C
  // catalogue) and the all-zero iSCSI vector.
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, std::strlen(digits)), 0xE3069283u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  // The software path answers the same.
  EXPECT_EQ(ExtendCrc32cSoftwareForTesting(0, digits, 9), 0xE3069283u);
  EXPECT_EQ(ExtendCrc32cSoftwareForTesting(0, zeros.data(), 32),
            0x8A9136AAu);
}

TEST(Crc32cTest, SelectedPathEqualsSoftwareAtEveryLengthAndAlignment) {
  RecordProperty("hardware", Crc32cUsesHardware() ? 1 : 0);
  const std::vector<uint8_t> buf = RandomBytes(300 + 8, 1);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf.data() + align;
      ASSERT_EQ(Crc32c(p, len), ExtendCrc32cSoftwareForTesting(0, p, len))
          << "align " << align << " len " << len;
      // A nonzero running CRC too, so the pre/post inversion is covered.
      ASSERT_EQ(ExtendCrc32c(0xDEADBEEFu, p, len),
                ExtendCrc32cSoftwareForTesting(0xDEADBEEFu, p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, SelectedPathEqualsSoftwareOnOneMebibyte) {
  const std::vector<uint8_t> buf = RandomBytes(std::size_t{1} << 20, 2);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()),
            ExtendCrc32cSoftwareForTesting(0, buf.data(), buf.size()));
}

TEST(Crc32cTest, ExtendChainsLikeOneBuffer) {
  // Crc32c(ab) == ExtendCrc32c(Crc32c(a), b) at every split point.
  const std::vector<uint8_t> buf = RandomBytes(97, 3);
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const uint32_t head = Crc32c(buf.data(), cut);
    ASSERT_EQ(ExtendCrc32c(head, buf.data() + cut, buf.size() - cut), whole)
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace fastppr
