#include <gtest/gtest.h>

#include "radio/medium.hpp"
#include "radio/packet.hpp"

namespace telea {
namespace {

TEST(PacketGroup, SizeGrowsPerDestination) {
  msg::GroupControlPacket g;
  Frame empty;
  empty.payload = g;
  const std::size_t base = wire_size_bytes(empty);

  g.dests.push_back(
      msg::GroupDest{5, BitString::from_string_unchecked("00101")});
  Frame one;
  one.payload = g;
  // id(2) + length octet + 1 code byte.
  EXPECT_EQ(wire_size_bytes(one), base + 2 + 1 + 1);

  g.dests.push_back(
      msg::GroupDest{6, BitString::from_string_unchecked("001011")});
  Frame two;
  two.payload = g;
  EXPECT_GT(wire_size_bytes(two), wire_size_bytes(one));
}

TEST(PacketGroup, AnycastWantsAck) {
  // Group control packets are claimed with link acknowledgements even as
  // broadcasts — same anycast discipline as unicast control packets.
  msg::GroupControlPacket g;
  g.dests.push_back(msg::GroupDest{1, BitString::from_string_unchecked("01")});
  Frame f;
  f.dst = kBroadcastNode;
  f.payload = g;
  EXPECT_TRUE(RadioMedium::frame_wants_ack(f));
}

TEST(PacketGroup, ChunkOfEighteenShortCodesFitsMpdu) {
  // The group chunking limit (18 destinations of testbed-scale codes) must
  // actually fit a 127-byte MPDU.
  msg::GroupControlPacket g;
  for (int i = 0; i < 18; ++i) {
    g.dests.push_back(msg::GroupDest{
        static_cast<NodeId>(i), BitString::from_string_unchecked("00101010")});
  }
  Frame f;
  f.payload = g;
  EXPECT_LE(wire_size_bytes(f), 127u);
}

}  // namespace
}  // namespace telea
