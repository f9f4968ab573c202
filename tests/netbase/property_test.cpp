// Property-based tests over netbase invariants, swept with deterministic
// pseudo-random inputs (parameterized across independent RNG streams).
#include <gtest/gtest.h>

#include "netbase/checksum.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/permutation.hpp"
#include "netbase/prefix.hpp"
#include "netbase/rng.hpp"

namespace beholder6 {
namespace {

class NetbaseProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng() const { return Rng{GetParam()}; }
  Ipv6Addr random_addr(Rng& r) const { return Ipv6Addr::from_halves(r(), r()); }
};

TEST_P(NetbaseProperties, ParseFormatRoundTrip) {
  auto r = rng();
  for (int i = 0; i < 200; ++i) {
    const auto a = random_addr(r);
    const auto parsed = Ipv6Addr::parse(a.to_string());
    ASSERT_TRUE(parsed) << a.to_string();
    EXPECT_EQ(*parsed, a);
  }
}

TEST_P(NetbaseProperties, MaskIsIdempotentAndMonotone) {
  auto r = rng();
  for (int i = 0; i < 100; ++i) {
    const auto a = random_addr(r);
    const auto len = static_cast<unsigned>(r.below(129));
    const auto m = a.masked(len);
    EXPECT_EQ(m.masked(len), m) << "idempotent";
    EXPECT_GE(a.common_prefix_len(m), len) << "mask preserves prefix bits";
    // A shorter mask of the mask equals the shorter mask of the original.
    const auto len2 = static_cast<unsigned>(r.below(len + 1));
    EXPECT_EQ(m.masked(len2), a.masked(len2));
  }
}

TEST_P(NetbaseProperties, BitAccessorsAgreeWithMask) {
  auto r = rng();
  for (int i = 0; i < 50; ++i) {
    const auto a = random_addr(r);
    const auto len = static_cast<unsigned>(r.below(128));
    // Bits below `len` survive masking; bits above read as zero.
    const auto m = a.masked(len);
    for (unsigned b = 0; b < 128; b += 7)
      EXPECT_EQ(m.bit(b), b < len ? a.bit(b) : false);
  }
}

TEST_P(NetbaseProperties, CommonPrefixLenIsSymmetricAndBounded) {
  auto r = rng();
  for (int i = 0; i < 100; ++i) {
    const auto a = random_addr(r), b = random_addr(r);
    const auto ab = a.common_prefix_len(b);
    EXPECT_EQ(ab, b.common_prefix_len(a));
    EXPECT_LE(ab, 128u);
    if (ab < 128) {
      EXPECT_NE(a.bit(ab), b.bit(ab)) << "first differing bit";
    }
  }
}

TEST_P(NetbaseProperties, PrefixContainmentConsistency) {
  auto r = rng();
  for (int i = 0; i < 100; ++i) {
    const auto a = random_addr(r);
    const auto len = static_cast<unsigned>(r.below(129));
    const Prefix p{a, len};
    EXPECT_TRUE(p.contains(a));
    // Any address sharing >= len bits is contained; flipping bit len-1 exits.
    if (len > 0) {
      const auto outside = a.with_bit(len - 1, !a.bit(len - 1));
      EXPECT_FALSE(p.contains(outside));
    }
  }
}

TEST_P(NetbaseProperties, ChecksumDetectsSingleBitFlips) {
  auto r = rng();
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(r());
  const auto base = internet_checksum(data);
  for (int i = 0; i < 40; ++i) {
    auto mutated = data;
    mutated[r.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << r.below(8));
    if (mutated == data) continue;
    EXPECT_NE(internet_checksum(mutated), base)
        << "one's-complement checksum must catch single-bit flips";
  }
}

TEST_P(NetbaseProperties, PermutationBijectiveOnRandomDomains) {
  auto r = rng();
  for (int i = 0; i < 4; ++i) {
    const auto n = 1 + r.below(5000);
    Permutation perm{n, r()};
    std::vector<bool> hit(n, false);
    for (std::uint64_t v = 0; v < n; ++v) {
      const auto m = perm.map(v);
      ASSERT_LT(m, n);
      ASSERT_FALSE(hit[m]);
      hit[m] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, NetbaseProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace beholder6
