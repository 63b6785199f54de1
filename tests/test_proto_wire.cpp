// Wire codecs: golden bytes, round trips, checksums, malformed input.
#include "proto/wire.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace drs::proto::wire {
namespace {

using Bytes = std::vector<std::uint8_t>;

// --- primitives ---------------------------------------------------------------

TEST(ByteWriter, BigEndianLayout) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090A0B0C0D0E0Full);
  EXPECT_EQ(w.bytes(), (Bytes{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                              0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F}));
}

TEST(ByteReader, RoundTripsWriter) {
  ByteWriter w;
  w.u8(7);
  w.u16(1234);
  w.u32(567890);
  w.u64(0xDEADBEEFCAFEF00Dull);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 1234);
  EXPECT_EQ(r.u32(), 567890u);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, UnderrunSticksNotOk) {
  const Bytes bytes{0x01};
  ByteReader r(bytes);
  EXPECT_EQ(r.u16(), 0x0100u);  // second byte read as 0 after the underrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(InternetChecksum, Rfc1071Example) {
  // Classic example: {0x00,0x01,0xf2,0x03,0xf4,0xf5,0xf6,0xf7} -> 0x220d.
  const Bytes bytes{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(bytes), 0x220d);
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const Bytes even{0x12, 0x34, 0xAB, 0x00};
  const Bytes odd{0x12, 0x34, 0xAB};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(InternetChecksum, VerifiesToZeroWhenEmbedded) {
  IcmpPayload payload;
  payload.ident = 42;
  payload.seq = 7;
  const auto bytes = encode(payload);
  EXPECT_EQ(internet_checksum(bytes), 0);
}

// --- ICMP ---------------------------------------------------------------------

TEST(IcmpWire, GoldenEchoRequest) {
  IcmpPayload payload;
  payload.type = IcmpPayload::Type::kEchoRequest;
  payload.ident = 0x0102;
  payload.seq = 0x0304;
  const auto bytes = encode(payload);
  ASSERT_EQ(bytes.size(), payload.wire_size());
  EXPECT_EQ(bytes[0], 8);                          // echo request
  EXPECT_EQ(bytes[1], 0);                          // code
  EXPECT_EQ((bytes[4] << 8 | bytes[5]), 0x0102);   // ident
  EXPECT_EQ((bytes[6] << 8 | bytes[7]), 0x0304);   // seq
}

TEST(IcmpWire, RoundTripWithData) {
  IcmpPayload payload;
  payload.type = IcmpPayload::Type::kEchoReply;
  payload.ident = 9;
  payload.seq = 65535;
  payload.data_bytes = 56;
  const auto bytes = encode(payload);
  ASSERT_EQ(bytes.size(), payload.wire_size());
  const auto decoded = decode_icmp(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IcmpPayload::Type::kEchoReply);
  EXPECT_EQ(decoded->ident, 9);
  EXPECT_EQ(decoded->seq, 65535);
  EXPECT_EQ(decoded->data_bytes, 56u);
}

TEST(IcmpWire, CorruptionIsDetected) {
  IcmpPayload payload;
  payload.ident = 1;
  auto bytes = encode(payload);
  bytes[4] ^= 0xFF;  // flip the ident
  EXPECT_FALSE(decode_icmp(bytes).has_value());
}

TEST(IcmpWire, TruncationRejected) {
  const auto bytes = encode(IcmpPayload{});
  const std::span<const std::uint8_t> clipped(bytes.data(), 6);
  EXPECT_FALSE(decode_icmp(clipped).has_value());
}

// --- UDP ----------------------------------------------------------------------

TEST(UdpWire, GoldenHeader) {
  UdpPayload payload;
  payload.src_port = 7001;
  payload.dst_port = 7000;
  payload.data_bytes = 4;
  const auto bytes = encode(payload);
  ASSERT_EQ(bytes.size(), payload.wire_size());
  EXPECT_EQ((bytes[0] << 8 | bytes[1]), 7001);
  EXPECT_EQ((bytes[2] << 8 | bytes[3]), 7000);
  EXPECT_EQ((bytes[4] << 8 | bytes[5]), 12);  // length = 8 + 4
}

TEST(UdpWire, RoundTrip) {
  UdpPayload payload;
  payload.src_port = 1;
  payload.dst_port = 65535;
  payload.data_bytes = 256;
  const auto decoded = decode_udp(encode(payload));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src_port, 1);
  EXPECT_EQ(decoded->dst_port, 65535);
  EXPECT_EQ(decoded->data_bytes, 256u);
}

TEST(UdpWire, LengthMismatchRejected) {
  auto bytes = encode(UdpPayload{});
  bytes.push_back(0);  // trailing garbage not covered by the length field
  EXPECT_FALSE(decode_udp(bytes).has_value());
}

// --- TCP ----------------------------------------------------------------------

TEST(TcpWire, RoundTripAllFlags) {
  TcpSegment segment;
  segment.src_port = 40000;
  segment.dst_port = 80;
  segment.seq = 123456789;
  segment.ack_no = 987654321;
  segment.syn = true;
  segment.ack = true;
  segment.fin = true;
  segment.rst = false;
  segment.data_bytes = 1460;
  const auto bytes = encode(segment);
  ASSERT_EQ(bytes.size(), segment.wire_size());
  const auto decoded = decode_tcp(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src_port, 40000);
  EXPECT_EQ(decoded->dst_port, 80);
  EXPECT_EQ(decoded->seq, 123456789u);
  EXPECT_EQ(decoded->ack_no, 987654321u);
  EXPECT_TRUE(decoded->syn);
  EXPECT_TRUE(decoded->ack);
  EXPECT_TRUE(decoded->fin);
  EXPECT_FALSE(decoded->rst);
  EXPECT_EQ(decoded->data_bytes, 1460u);
}

TEST(TcpWire, FlagBitsMatchRfc793) {
  TcpSegment segment;
  segment.rst = true;
  const auto bytes = encode(segment);
  EXPECT_EQ(bytes[13], 0x04);  // RST is bit 2
  EXPECT_EQ(bytes[12], 5 << 4);  // data offset 5 words
}

TEST(TcpWire, BadDataOffsetRejected) {
  auto bytes = encode(TcpSegment{});
  bytes[12] = 6 << 4;  // claims options we never emit
  EXPECT_FALSE(decode_tcp(bytes).has_value());
}

// --- DRS control ----------------------------------------------------------------

TEST(DrsWire, GoldenHeaderAndRoundTrip) {
  core::DrsControlPayload payload;
  payload.type = core::DrsMessageType::kRouteOffer;
  payload.request_id = 0x0000000500000007ull;
  payload.requester = 5;
  payload.target = 1;
  payload.relay = 2;
  payload.links_down = 3;
  payload.detours = 4;
  payload.leases_held = 6;
  const auto bytes = encode(payload);
  ASSERT_EQ(bytes.size(), payload.wire_size());
  EXPECT_EQ(bytes[0], 'D');
  EXPECT_EQ(bytes[1], 'R');
  EXPECT_EQ(bytes[2], 1);  // version
  EXPECT_EQ(bytes[3], static_cast<std::uint8_t>(core::DrsMessageType::kRouteOffer));
  const auto decoded = decode_drs(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, core::DrsMessageType::kRouteOffer);
  EXPECT_EQ(decoded->request_id, payload.request_id);
  EXPECT_EQ(decoded->requester, 5);
  EXPECT_EQ(decoded->target, 1);
  EXPECT_EQ(decoded->relay, 2);
  EXPECT_EQ(decoded->links_down, 3);
  EXPECT_EQ(decoded->detours, 4);
  EXPECT_EQ(decoded->leases_held, 6);
}

class DrsWireEveryType
    : public ::testing::TestWithParam<core::DrsMessageType> {};

TEST_P(DrsWireEveryType, RoundTrips) {
  core::DrsControlPayload payload;
  payload.type = GetParam();
  payload.request_id = 99;
  const auto decoded = decode_drs(encode(payload));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, DrsWireEveryType,
    ::testing::Values(core::DrsMessageType::kRouteDiscover,
                      core::DrsMessageType::kRouteOffer,
                      core::DrsMessageType::kRouteSet,
                      core::DrsMessageType::kRouteSetAck,
                      core::DrsMessageType::kRouteTeardown,
                      core::DrsMessageType::kStatusRequest,
                      core::DrsMessageType::kStatusReply));

TEST(DrsWire, RejectsBadMagicVersionAndType) {
  auto good = encode(core::DrsControlPayload{});
  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode_drs(bad_magic).has_value());
  auto bad_version = good;
  bad_version[2] = 9;
  EXPECT_FALSE(decode_drs(bad_version).has_value());
  auto bad_type = good;
  bad_type[3] = 200;
  EXPECT_FALSE(decode_drs(bad_type).has_value());
  const std::span<const std::uint8_t> clipped(good.data(), 10);
  EXPECT_FALSE(decode_drs(clipped).has_value());
}

// --- RIP ------------------------------------------------------------------------

TEST(RipWire, GoldenAndRoundTrip) {
  policy::RipPayload payload;
  payload.advertiser = 3;
  payload.entries.push_back({net::cluster_ip(0, 1), 1});
  payload.entries.push_back({net::cluster_ip(1, 4), 2});
  const auto bytes = encode(payload);
  ASSERT_EQ(bytes.size(), payload.wire_size());
  EXPECT_EQ(bytes[0], 2);  // command: response
  EXPECT_EQ(bytes[1], 1);  // version
  EXPECT_EQ((bytes[4] << 8 | bytes[5]), 2);  // AF_INET
  const auto decoded = decode_rip(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->advertiser, 3);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].destination, net::cluster_ip(0, 1));
  EXPECT_EQ(decoded->entries[0].metric, 1);
  EXPECT_EQ(decoded->entries[1].destination, net::cluster_ip(1, 4));
  EXPECT_EQ(decoded->entries[1].metric, 2);
}

TEST(RipWire, EmptyAdvertisementIsJustHeader) {
  policy::RipPayload payload;
  const auto bytes = encode(payload);
  EXPECT_EQ(bytes.size(), 4u);
  const auto decoded = decode_rip(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->entries.empty());
}

TEST(RipWire, RejectsRaggedEntries) {
  auto bytes = encode(policy::RipPayload{});
  bytes.resize(bytes.size() + 10);  // half an entry
  EXPECT_FALSE(decode_rip(bytes).has_value());
}

// --- Decoder robustness (deterministic fuzz) -----------------------------------

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverMisbehave) {
  // Every decoder must treat arbitrary octets as data: either reject them or
  // produce a value consistent with the input length — never crash, never
  // read out of bounds (ASAN-clean by construction of ByteReader).
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes bytes(rng.next_below(64), 0);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    if (auto icmp = decode_icmp(bytes)) {
      EXPECT_EQ(icmp->wire_size(), bytes.size());
    }
    if (auto udp = decode_udp(bytes)) {
      EXPECT_EQ(udp->wire_size(), bytes.size());
    }
    if (auto tcp = decode_tcp(bytes)) {
      EXPECT_EQ(tcp->wire_size(), bytes.size());
    }
    if (auto drs = decode_drs(bytes)) {
      EXPECT_EQ(drs->wire_size(), 24u);
    }
    if (auto rip = decode_rip(bytes)) {
      EXPECT_EQ(rip->wire_size(), bytes.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(DecoderFuzz, EncodeDecodeIsIdentityUnderMutationOrRejection) {
  // Flip one byte of a valid DRS frame at every position: each mutant either
  // decodes to something structurally valid or is rejected — and reverting
  // the flip always restores the original.
  core::DrsControlPayload payload;
  payload.type = core::DrsMessageType::kRouteSet;
  payload.request_id = 0xABCDEF;
  payload.requester = 3;
  payload.target = 4;
  payload.relay = 5;
  const auto golden = encode(payload);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    auto mutant = golden;
    mutant[i] ^= 0x5A;
    const auto decoded = decode_drs(mutant);
    if (decoded) {
      // A surviving mutant must still round-trip through the codec.
      EXPECT_EQ(encode(*decoded), mutant) << "byte " << i;
    }
  }
  const auto reference = decode_drs(golden);
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(encode(*reference), golden);
}

}  // namespace
}  // namespace drs::proto::wire
