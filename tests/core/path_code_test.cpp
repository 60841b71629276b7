#include "core/path_code.hpp"

#include <gtest/gtest.h>

#include <set>

namespace telea {
namespace {

TEST(PathCode, SinkCodeIsSingleZeroBit) {
  const PathCode s = sink_code();
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.to_string(), "0");
}

TEST(PathCode, PaperFig2TwoChildrenGetTwoBitSpace) {
  // "S provides a two bits space (two bits space can accommodate up to 4
  // positions and is enough for the discovered two children nodes and the
  // potential hidden children nodes)".
  EXPECT_EQ(space_bits_for(2, HeadroomPolicy{}, /*reserve_zero=*/true), 2);
}

TEST(PathCode, SpaceGrowsWithChildren) {
  const HeadroomPolicy policy{};
  std::uint8_t prev = 0;
  for (std::uint32_t n = 1; n <= 40; ++n) {
    const std::uint8_t bits = space_bits_for(n, policy, true);
    EXPECT_GE(bits, prev);
    // Capacity must cover children + slack.
    EXPECT_GE((1u << bits) - 1, n + policy.slack(n));
    prev = bits;
  }
}

TEST(PathCode, HeadroomSaturatesAtMaxSlack) {
  HeadroomPolicy policy;
  policy.max_slack = 10;
  EXPECT_EQ(policy.slack(100), 10u);
  EXPECT_EQ(policy.slack(2), 1u);
  EXPECT_EQ(policy.slack(8), 4u);
}

TEST(PathCode, ZeroChildrenStillGetsOneBit) {
  EXPECT_GE(space_bits_for(0, HeadroomPolicy{}, true), 1);
}

TEST(PathCode, PaperFig3ThirdPositionInFiveBitSpace) {
  // Fig. 3: parent code "prefix", 5-bit space, position 2 -> prefix:00010.
  const PathCode prefix = BitString::from_string_unchecked("0110");
  const PathCode c = make_child_code(prefix, 2, 5);
  EXPECT_EQ(c.to_string(), "011000010");
}

TEST(PathCode, PaperFig2ChildCodes) {
  // S = "0" (1 valid bit), 2-bit space, children at positions 01 and 10:
  // A = 001, M = 010 (3 valid bits).
  const PathCode s = sink_code();
  EXPECT_EQ(make_child_code(s, 1, 2).to_string(), "001");
  EXPECT_EQ(make_child_code(s, 2, 2).to_string(), "010");
}

TEST(PathCode, ParentIsAlwaysPrefixOfChild) {
  const PathCode parent = BitString::from_string_unchecked("00101");
  for (std::uint32_t pos = 0; pos < 16; ++pos) {
    const PathCode child = make_child_code(parent, pos, 4);
    ASSERT_FALSE(child.empty());
    EXPECT_TRUE(parent.is_prefix_of(child));
    EXPECT_EQ(child.size(), parent.size() + 4);
  }
}

TEST(PathCode, PositionsYieldDistinctCodes) {
  const PathCode parent = BitString::from_string_unchecked("01");
  std::set<std::string> codes;
  for (std::uint32_t pos = 0; pos < 8; ++pos) {
    codes.insert(make_child_code(parent, pos, 3).to_string());
  }
  EXPECT_EQ(codes.size(), 8u);
}

TEST(PathCode, RejectsPositionOutsideSpace) {
  const PathCode parent = sink_code();
  EXPECT_TRUE(make_child_code(parent, 4, 2).empty());
  EXPECT_TRUE(make_child_code(parent, 1, 0).empty());
}

TEST(PathCode, RejectsCapacityOverflow) {
  PathCode deep;
  for (std::size_t i = 0; i < BitString::kCapacity - 2; ++i) {
    ASSERT_TRUE(deep.push_back(false));
  }
  EXPECT_TRUE(make_child_code(deep, 1, 3).empty());   // capacity-2+3 overflows
  EXPECT_FALSE(make_child_code(deep, 1, 2).empty());  // capacity-2+2 fits
}

TEST(PathCode, DivergenceZeroForIdenticalCodes) {
  const PathCode a = BitString::from_string_unchecked("00101");
  EXPECT_EQ(code_divergence(a, a), 0u);
}

TEST(PathCode, DivergenceGrowsWithEarlierSplit) {
  const PathCode dest = BitString::from_string_unchecked("001011");
  const PathCode sibling = BitString::from_string_unchecked("001100");
  const PathCode far = BitString::from_string_unchecked("010000");
  EXPECT_GT(code_divergence(far, dest), code_divergence(sibling, dest));
}

TEST(PathCode, DivergenceCountsBothTails) {
  const PathCode a = BitString::from_string_unchecked("0011");
  const PathCode b = BitString::from_string_unchecked("0100000");
  // Common prefix "0" (1 bit): tails 3 + 6.
  EXPECT_EQ(code_divergence(a, b), 9u);
}

/// Property sweep: chained allocations always preserve the prefix invariant
/// (every ancestor's code prefixes every descendant's), the core guarantee
/// the forwarding plane relies on.
class PathCodeChain : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(PathCodeChain, AncestorPrefixInvariant) {
  const std::uint8_t space = GetParam();
  std::vector<PathCode> chain{sink_code()};
  for (std::uint32_t depth = 0; depth < 12; ++depth) {
    const std::uint32_t pos = (depth * 7 + 1) % (1u << space);
    const PathCode next = make_child_code(chain.back(), pos, space);
    if (next.empty()) break;  // capacity reached
    chain.push_back(next);
  }
  ASSERT_GE(chain.size(), 8u);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    for (std::size_t j = i; j < chain.size(); ++j) {
      EXPECT_TRUE(chain[i].is_prefix_of(chain[j]))
          << "depth " << i << " vs " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Spaces, PathCodeChain,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

}  // namespace
}  // namespace telea
