// Wire framing and blocking-socket plumbing for TcpNet. Every byte on a
// D-DEMOS TCP connection is a length-prefixed frame: a fixed 25-byte header
// (magic, kind, source/destination node, per-peer sequence number, payload
// length) followed by the payload. Data frames carry exactly the bytes of
// one net::Buffer payload — the transport never re-encodes protocol
// messages, it scatter-writes the header from the stack and the shared
// payload allocation straight out of the Buffer (writev), so an N-process
// multicast still costs one serialization.
//
// Hello frames open every connection: protocol version, the sending
// process index, and the election id, so a node never accepts traffic from
// a different election or a stale cluster incarnation. Sequence numbers
// are per (source process -> destination process) and strictly increasing;
// the receiver drops seq <= last-seen, which makes the sender's
// resend-the-in-flight-frame reconnect policy idempotent (the D-DEMOS
// VC->BB vote-set submission is not duplicate-safe, so dedup lives here in
// the transport).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace ddemos::net {

inline constexpr std::uint32_t kFrameMagic = 0x44444d53;  // "DDMS"
// v2 added the sender incarnation to the HELLO (crash-recovery respawn:
// a restarted process restarts its sequence space, and the incarnation
// is what lets receivers reset their dedup floor for it).
inline constexpr std::uint8_t kFrameVersion = 2;
// Upper bound on a single frame payload; a header announcing more than
// this is treated as a malformed stream and the connection is dropped.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameKind : std::uint8_t {
  kHello = 1,    // connection opener: HelloBody payload
  kData = 2,     // one protocol message: raw net::Buffer bytes
  kControl = 3,  // launcher control plane: opcode byte + body
};

struct FrameHeader {
  FrameKind kind = FrameKind::kData;
  std::uint32_t from = 0;  // sending NodeId (kData) or process (kControl)
  std::uint32_t to = 0;    // destination NodeId (kData)
  std::uint64_t seq = 0;   // per (src process -> dst process), kData only
  std::uint32_t len = 0;   // payload bytes following the header

  static constexpr std::size_t kWireSize = 4 + 1 + 4 + 4 + 8 + 4;

  void encode(std::uint8_t out[kWireSize]) const;
  // Throws CodecError on bad magic, unknown kind, or oversized length.
  static FrameHeader decode(const std::uint8_t in[kWireSize]);
};

struct HelloBody {
  std::uint8_t version = kFrameVersion;
  std::uint32_t process = 0;  // sender's process index in the cluster
  // Monotonic per-process across respawns: 1 for the original launch, +1
  // for every crash-recovery respawn. Receivers reset the sender's seq
  // dedup floor when it rises and reject connections when it falls (a
  // stale pre-crash socket racing the respawn).
  std::uint64_t incarnation = 1;
  Bytes election_id;

  Bytes encode() const;
  static HelloBody decode(BytesView payload);  // throws CodecError
};

// --- blocking POSIX socket helpers (loopback/LAN, IPv4) ---

// Binds + listens on host:port (port 0 = ephemeral) and returns the
// listening fd; the actually bound port lands in *bound_port. Throws
// ProtocolError on failure.
int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port);

// Connects to host:port with TCP_NODELAY; returns -1 on failure (callers
// redial with backoff, so failure is normal, not exceptional).
int tcp_dial(const std::string& host, std::uint16_t port);

// Reads exactly n bytes; false on EOF/error (connection is dead).
bool read_full(int fd, void* buf, std::size_t n);

// Writes header + payload with writev, looping over partial writes; false
// on error. The payload bytes are borrowed (the caller's Buffer stays
// alive across the call), never copied.
bool write_frame(int fd, const FrameHeader& header, BytesView payload);

// Writes frames back to back (headers[i] then payloads[i], each header's
// len taken from its payload) with as few sendmsg calls as the kernel
// takes, so a busy connection drains its whole send queue at once. The
// first `skip` bytes of that stream are left out: a previous call wrote
// them. Blocking, it loops over partial writes until all is written; with
// dont_wait it stops instead when the socket buffer is full. Returns the
// bytes this call wrote, or -1 on error.
std::int64_t write_frames(int fd, std::span<const FrameHeader> headers,
                          std::span<const BytesView> payloads,
                          std::size_t skip = 0, bool dont_wait = false);

// Reads one complete frame (header + payload). Empty optional on EOF or
// any stream error, including a malformed header.
std::optional<std::pair<FrameHeader, Bytes>> read_frame(int fd);

// Buffered frame reads from one socket, for a connection's whole life:
// each recv takes up to a chunk, so frames that arrive together cost one
// syscall instead of two each. Not shareable between readers of one fd.
class FrameReader {
 public:
  explicit FrameReader(int fd);
  // The next frame, as read_frame returns it.
  std::optional<std::pair<FrameHeader, Bytes>> next();

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  // Buffers at least `want` unread bytes; false on EOF or error.
  bool fill(std::size_t want);

  int fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0, end_ = 0;  // unread bytes are [begin_, end_)
};

}  // namespace ddemos::net
