#include "proto/wire.hpp"

namespace drs::proto::wire {

void ByteWriter::u16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  bytes_.at(offset) = static_cast<std::uint8_t>(v >> 8);
  bytes_.at(offset + 1) = static_cast<std::uint8_t>(v);
}

std::uint8_t ByteReader::u8() {
  if (offset_ + 1 > bytes_.size()) {
    ok_ = false;
    return 0;
  }
  return bytes_[offset_++];
}

std::uint16_t ByteReader::u16() {
  const auto hi = u8();
  const auto lo = u8();
  return static_cast<std::uint16_t>(hi << 8 | lo);
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t hi = u16();
  const std::uint32_t lo = u16();
  return hi << 16 | lo;
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t hi = u32();
  const std::uint64_t lo = u32();
  return hi << 32 | lo;
}

void ByteReader::skip(std::size_t count) {
  if (offset_ + count > bytes_.size()) {
    ok_ = false;
    offset_ = bytes_.size();
    return;
  }
  offset_ += count;
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); i += 2) {
    sum += static_cast<std::uint32_t>(bytes[i] << 8 | bytes[i + 1]);
  }
  if (bytes.size() % 2 != 0) {
    sum += static_cast<std::uint32_t>(bytes.back() << 8);
  }
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

// --- ICMP (RFC 792 echo) ----------------------------------------------------

std::vector<std::uint8_t> encode(const IcmpPayload& payload) {
  ByteWriter w;
  w.u8(payload.type == IcmpPayload::Type::kEchoRequest ? 8 : 0);  // type
  w.u8(0);                                                        // code
  w.u16(0);                                                       // checksum slot
  w.u16(payload.ident);
  w.u16(payload.seq);
  w.zeros(payload.data_bytes);  // simulator echoes carry zero-filled data
  auto bytes = w.take();
  const std::uint16_t checksum = internet_checksum(bytes);
  bytes[2] = static_cast<std::uint8_t>(checksum >> 8);
  bytes[3] = static_cast<std::uint8_t>(checksum);
  return bytes;
}

std::optional<IcmpPayload> decode_icmp(std::span<const std::uint8_t> bytes) {
  if (internet_checksum(bytes) != 0) return std::nullopt;  // incl. truncation
  ByteReader r(bytes);
  const std::uint8_t type = r.u8();
  const std::uint8_t code = r.u8();
  r.u16();  // checksum (verified above)
  IcmpPayload payload;
  if (type == 8) {
    payload.type = IcmpPayload::Type::kEchoRequest;
  } else if (type == 0) {
    payload.type = IcmpPayload::Type::kEchoReply;
  } else {
    return std::nullopt;
  }
  if (code != 0) return std::nullopt;
  payload.ident = r.u16();
  payload.seq = r.u16();
  if (!r.ok()) return std::nullopt;
  payload.data_bytes = static_cast<std::uint32_t>(r.remaining());
  return payload;
}

// --- UDP (RFC 768; checksum 0 = unused, as IPv4 permits) ---------------------

std::vector<std::uint8_t> encode(const UdpPayload& payload) {
  ByteWriter w;
  w.u16(payload.src_port);
  w.u16(payload.dst_port);
  w.u16(static_cast<std::uint16_t>(8 + payload.data_bytes));  // length
  w.u16(0);                                                   // checksum unused
  w.zeros(payload.data_bytes);
  return w.take();
}

std::optional<UdpPayload> decode_udp(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  UdpPayload payload;
  payload.src_port = r.u16();
  payload.dst_port = r.u16();
  const std::uint16_t length = r.u16();
  r.u16();  // checksum
  if (!r.ok() || length < 8 || length != bytes.size()) return std::nullopt;
  payload.data_bytes = static_cast<std::uint32_t>(length - 8);
  return payload;
}

// --- TCP (RFC 793 header; 32-bit wrap-free sim sequence numbers are sent
// --- modulo 2^32, which is faithful for any window below 4 GiB) -------------

std::vector<std::uint8_t> encode(const TcpSegment& segment) {
  ByteWriter w;
  w.u16(segment.src_port);
  w.u16(segment.dst_port);
  w.u32(static_cast<std::uint32_t>(segment.seq));
  w.u32(static_cast<std::uint32_t>(segment.ack_no));
  std::uint8_t flags = 0;
  if (segment.fin) flags |= 0x01;
  if (segment.syn) flags |= 0x02;
  if (segment.rst) flags |= 0x04;
  if (segment.ack) flags |= 0x10;
  w.u8(5 << 4);  // data offset: 5 words, no options
  w.u8(flags);
  w.u16(0xFFFF);  // window (the sim uses a fixed segment window)
  w.u16(0);       // checksum (needs the IP pseudo-header; unused in-sim)
  w.u16(0);       // urgent pointer
  w.zeros(segment.data_bytes);
  return w.take();
}

std::optional<TcpSegment> decode_tcp(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  TcpSegment segment;
  segment.src_port = r.u16();
  segment.dst_port = r.u16();
  segment.seq = r.u32();
  segment.ack_no = r.u32();
  const std::uint8_t offset_words = static_cast<std::uint8_t>(r.u8() >> 4);
  const std::uint8_t flags = r.u8();
  r.u16();  // window
  r.u16();  // checksum
  r.u16();  // urgent
  if (!r.ok() || offset_words != 5) return std::nullopt;
  segment.fin = flags & 0x01;
  segment.syn = flags & 0x02;
  segment.rst = flags & 0x04;
  segment.ack = flags & 0x10;
  segment.data_bytes = static_cast<std::uint32_t>(r.remaining());
  return segment;
}

// --- DRS control v1 -----------------------------------------------------------
//
//  0      1      2      3      4..11        12..13     14..15    16..17
//  'D'    'R'    ver=1  type   request_id   requester  target    relay
//  18..19       20..21    22..23
//  links_down   detours   leases_held
// (24 bytes total, matching DrsControlPayload::wire_size()).

std::vector<std::uint8_t> encode(const core::DrsControlPayload& payload) {
  ByteWriter w;
  w.u8('D');
  w.u8('R');
  w.u8(1);  // version
  w.u8(static_cast<std::uint8_t>(payload.type));
  w.u64(payload.request_id);
  w.u16(payload.requester);
  w.u16(payload.target);
  w.u16(payload.relay);
  w.u16(payload.links_down);
  w.u16(payload.detours);
  w.u16(payload.leases_held);
  return w.take();
}

std::optional<core::DrsControlPayload> decode_drs(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u8() != 'D' || r.u8() != 'R' || r.u8() != 1) return std::nullopt;
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(core::DrsMessageType::kStatusReply)) {
    return std::nullopt;
  }
  core::DrsControlPayload payload;
  payload.type = static_cast<core::DrsMessageType>(type);
  payload.request_id = r.u64();
  payload.requester = r.u16();
  payload.target = r.u16();
  payload.relay = r.u16();
  payload.links_down = r.u16();
  payload.detours = r.u16();
  payload.leases_held = r.u16();
  if (!r.ok()) return std::nullopt;
  return payload;
}

// --- RIPv1 (RFC 1058: 4-byte header + 20 bytes per entry) ---------------------

std::vector<std::uint8_t> encode(const policy::RipPayload& payload) {
  ByteWriter w;
  w.u8(2);  // command: response
  w.u8(1);  // version 1
  w.u16(payload.advertiser);  // RFC says zero; we carry the advertiser here
  for (const auto& entry : payload.entries) {
    w.u16(2);  // address family: AF_INET
    w.u16(0);
    w.u32(entry.destination.value());
    w.u32(0);  // must-be-zero
    w.u32(0);  // must-be-zero
    w.u32(entry.metric);
  }
  return w.take();
}

std::optional<policy::RipPayload> decode_rip(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u8() != 2 || r.u8() != 1) return std::nullopt;
  policy::RipPayload payload;
  payload.advertiser = r.u16();
  if ((bytes.size() - 4) % 20 != 0) return std::nullopt;
  while (r.ok() && r.remaining() >= 20) {
    if (r.u16() != 2) return std::nullopt;  // address family
    r.u16();
    policy::RipAdvert advert;
    advert.destination = net::Ipv4Addr(r.u32());
    r.u32();
    r.u32();
    const std::uint32_t metric = r.u32();
    if (metric > 255) return std::nullopt;
    advert.metric = static_cast<std::uint8_t>(metric);
    payload.entries.push_back(advert);
  }
  if (!r.ok()) return std::nullopt;
  return payload;
}

}  // namespace drs::proto::wire
