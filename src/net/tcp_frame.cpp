#include "net/tcp_frame.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstring>
#include <mutex>
#include <vector>

#include "util/codec.hpp"
#include "util/error.hpp"

namespace ddemos::net {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         static_cast<std::uint64_t>(get_u32(in + 4)) << 32;
}

// A write to a peer-closed socket must surface as EPIPE from writev (the
// writer then redials), not kill the process. Installed once, from every
// socket-creating entry point.
void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

}  // namespace

void FrameHeader::encode(std::uint8_t out[kWireSize]) const {
  put_u32(out, kFrameMagic);
  out[4] = static_cast<std::uint8_t>(kind);
  put_u32(out + 5, from);
  put_u32(out + 9, to);
  put_u64(out + 13, seq);
  put_u32(out + 21, len);
}

FrameHeader FrameHeader::decode(const std::uint8_t in[kWireSize]) {
  if (get_u32(in) != kFrameMagic) throw CodecError("tcp frame: bad magic");
  FrameHeader h;
  switch (in[4]) {
    case static_cast<std::uint8_t>(FrameKind::kHello):
    case static_cast<std::uint8_t>(FrameKind::kData):
    case static_cast<std::uint8_t>(FrameKind::kControl):
      h.kind = static_cast<FrameKind>(in[4]);
      break;
    default:
      throw CodecError("tcp frame: unknown kind");
  }
  h.from = get_u32(in + 5);
  h.to = get_u32(in + 9);
  h.seq = get_u64(in + 13);
  h.len = get_u32(in + 21);
  if (h.len > kMaxFramePayload) throw CodecError("tcp frame: oversized");
  return h;
}

Bytes HelloBody::encode() const {
  Writer w;
  w.u8(version);
  w.u32(process);
  w.u64(incarnation);
  w.bytes(election_id);
  return w.take();
}

HelloBody HelloBody::decode(BytesView payload) {
  Reader r(payload);
  HelloBody h;
  h.version = r.u8();
  h.process = r.u32();
  h.incarnation = r.u64();
  h.election_id = r.bytes();
  r.expect_done();
  return h;
}

int tcp_listen(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port) {
  ignore_sigpipe();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw ProtocolError("tcp_listen: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw ProtocolError("tcp_listen: bad host " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    int err = errno;
    ::close(fd);
    throw ProtocolError("tcp_listen: bind/listen failed: " +
                        std::string(std::strerror(err)));
  }
  if (bound_port) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      throw ProtocolError("tcp_listen: getsockname failed");
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

int tcp_dial(const std::string& host, std::uint16_t port) {
  ignore_sigpipe();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error
  }
  return true;
}

bool write_frame(int fd, const FrameHeader& header, BytesView payload) {
  return write_frames(fd, std::span<const FrameHeader>(&header, 1),
                      std::span<const BytesView>(&payload, 1)) >= 0;
}

std::int64_t write_frames(int fd, std::span<const FrameHeader> headers,
                          std::span<const BytesView> payloads,
                          std::size_t skip, bool dont_wait) {
  using Wire = std::array<std::uint8_t, FrameHeader::kWireSize>;
  std::vector<Wire> wire(headers.size());
  std::vector<iovec> iov;
  iov.reserve(2 * headers.size());
  for (std::size_t i = 0; i < headers.size(); ++i) {
    FrameHeader h = headers[i];
    h.len = static_cast<std::uint32_t>(payloads[i].size());
    h.encode(wire[i].data());
    iov.push_back({wire[i].data(), wire[i].size()});
    if (!payloads[i].empty()) {
      iov.push_back({const_cast<std::uint8_t*>(payloads[i].data()),
                     payloads[i].size()});
    }
  }
  std::size_t idx = 0;
  // Moves the cursor past `n` written bytes.
  auto advance = [&](std::size_t n) {
    while (idx < iov.size() && n >= iov[idx].iov_len) {
      n -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iov.size() && n > 0) {
      iov[idx].iov_base = static_cast<std::uint8_t*>(iov[idx].iov_base) + n;
      iov[idx].iov_len -= n;
    }
  };
  advance(skip);
  std::int64_t total = 0;
  while (idx < iov.size()) {
    msghdr msg{};
    msg.msg_iov = &iov[idx];
    msg.msg_iovlen = std::min<std::size_t>(iov.size() - idx, IOV_MAX);
    ssize_t wrote = ::sendmsg(fd, &msg, dont_wait ? MSG_DONTWAIT : 0);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (dont_wait && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return -1;
    }
    total += wrote;
    advance(static_cast<std::size_t>(wrote));
  }
  return total;
}

std::optional<std::pair<FrameHeader, Bytes>> read_frame(int fd) {
  std::uint8_t hdr[FrameHeader::kWireSize];
  if (!read_full(fd, hdr, sizeof(hdr))) return std::nullopt;
  FrameHeader h;
  try {
    h = FrameHeader::decode(hdr);
  } catch (const CodecError&) {
    return std::nullopt;  // malformed stream: treat as a dead connection
  }
  Bytes payload(h.len);
  if (h.len > 0 && !read_full(fd, payload.data(), payload.size())) {
    return std::nullopt;
  }
  return std::make_pair(h, std::move(payload));
}

FrameReader::FrameReader(int fd) : fd_(fd), buf_(kChunk) {}

bool FrameReader::fill(std::size_t want) {
  if (end_ - begin_ >= want) return true;
  // Fewer than `want` bytes remain (less than one header): move them to
  // the front so the next recv has the whole chunk to fill.
  std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  while (end_ < want) {
    ssize_t got = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
    if (got > 0) {
      end_ += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error
  }
  return true;
}

std::optional<std::pair<FrameHeader, Bytes>> FrameReader::next() {
  if (!fill(FrameHeader::kWireSize)) return std::nullopt;
  FrameHeader h;
  try {
    h = FrameHeader::decode(buf_.data() + begin_);
  } catch (const CodecError&) {
    return std::nullopt;  // malformed stream: treat as a dead connection
  }
  begin_ += FrameHeader::kWireSize;
  Bytes payload(h.len);
  const std::size_t have = std::min<std::size_t>(end_ - begin_, h.len);
  std::memcpy(payload.data(), buf_.data() + begin_, have);
  begin_ += have;
  // A payload larger than what is buffered is read straight into place.
  if (have < h.len && !read_full(fd_, payload.data() + have, h.len - have)) {
    return std::nullopt;
  }
  return std::make_pair(h, std::move(payload));
}

}  // namespace ddemos::net
