// Wire formats: byte-exact encoding of the simulator's structured payloads.
//
// The simulator proper moves typed payloads (see net/packet.hpp) and only
// accounts for sizes; this module provides the actual octets — network
// byte order, RFC-shaped headers, Internet checksums — so that:
//   * wire sizes claimed by each Payload::wire_size() are backed by a real
//     layout (golden-byte tests pin them),
//   * traces can be exported in a byte-accurate form,
//   * a future port to real sockets has the codecs ready.
//
// Layouts follow the RFCs where one exists (ICMP: 792, UDP: 768, TCP: 793,
// RIPv1: 1058) and define a versioned format for the DRS control messages
// (which the original system never published).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/messages.hpp"
#include "policy/rip.hpp"
#include "proto/icmp.hpp"
#include "proto/tcp_lite.hpp"
#include "proto/udp.hpp"

namespace drs::proto::wire {

/// Big-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Appends `count` zero bytes (padding / zero-filled payload data).
  void zeros(std::size_t count) { bytes_.resize(bytes_.size() + count, 0); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  /// Overwrites two bytes at `offset` (checksum backfill).
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Big-endian byte source; `ok()` turns false on under-run and stays false.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  void skip(std::size_t count);
  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

/// RFC 1071 Internet checksum over `bytes` (used by ICMP; the IP/TCP/UDP
/// pseudo-header variants are out of scope for the simulator).
std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes);

// --- Codecs. Every encode produces exactly Payload::wire_size() bytes; every
// --- decode returns nullopt on truncation, bad type codes or checksum
// --- mismatch (where the format carries one).

std::vector<std::uint8_t> encode(const IcmpPayload& payload);
std::optional<IcmpPayload> decode_icmp(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode(const UdpPayload& payload);
std::optional<UdpPayload> decode_udp(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode(const TcpSegment& segment);
std::optional<TcpSegment> decode_tcp(std::span<const std::uint8_t> bytes);

/// DRS control format v1: magic 'D''R', version, type, then fixed fields.
std::vector<std::uint8_t> encode(const core::DrsControlPayload& payload);
std::optional<core::DrsControlPayload> decode_drs(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode(const policy::RipPayload& payload);
std::optional<policy::RipPayload> decode_rip(std::span<const std::uint8_t> bytes);

}  // namespace drs::proto::wire
