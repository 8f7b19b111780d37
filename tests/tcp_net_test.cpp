// TcpNet transport unit tests: wire framing (including batched writes and
// buffered reads of several frames), the shared real-clock timer
// clamp, loopback delivery between two in-process TcpNet instances (two
// "OS processes" of a cluster hosted in one test binary), reconnect after
// a sever, send-side backpressure against an unreachable peer, and the
// fail-closed frame-origin rule against a raw impersonating client.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/tcp_frame.hpp"
#include "net/tcp_net.hpp"
#include "test_clock.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace ddemos::net {
namespace {

using ddemos::test::scaled;

TEST(TcpFrame, HeaderRoundTrip) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.from = 3;
  h.to = 7;
  h.seq = 0x1122334455667788ull;
  h.len = 4096;
  std::uint8_t wire[FrameHeader::kWireSize];
  h.encode(wire);
  FrameHeader d = FrameHeader::decode(wire);
  EXPECT_EQ(d.kind, FrameKind::kData);
  EXPECT_EQ(d.from, 3u);
  EXPECT_EQ(d.to, 7u);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.len, 4096u);
}

TEST(TcpFrame, DecodeRejectsGarbage) {
  FrameHeader h;
  h.kind = FrameKind::kControl;
  std::uint8_t wire[FrameHeader::kWireSize];
  h.encode(wire);

  std::uint8_t bad_magic[FrameHeader::kWireSize];
  std::memcpy(bad_magic, wire, sizeof(wire));
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(FrameHeader::decode(bad_magic), CodecError);

  std::uint8_t bad_kind[FrameHeader::kWireSize];
  std::memcpy(bad_kind, wire, sizeof(wire));
  bad_kind[4] = 0x77;  // not a FrameKind
  EXPECT_THROW(FrameHeader::decode(bad_kind), CodecError);

  h.len = kMaxFramePayload + 1;
  h.encode(wire);
  EXPECT_THROW(FrameHeader::decode(wire), CodecError);
}

TEST(TcpFrame, HelloBodyRoundTrip) {
  HelloBody hello;
  hello.process = 5;
  hello.election_id = to_bytes("election-42");
  Bytes wire = hello.encode();
  HelloBody d = HelloBody::decode(wire);
  EXPECT_EQ(d.version, hello.version);
  EXPECT_EQ(d.process, 5u);
  EXPECT_EQ(d.election_id, to_bytes("election-42"));
}

// write_frames and FrameReader over a socketpair: several frames in one
// call (an empty payload, one larger than the reader's chunk), a write
// that resumes after `skip` bytes, and a dont_wait write the socket buffer
// cuts short, finished by a blocking one while the reader drains.
TEST(TcpFrame, BatchedWritesAndBufferedReadsRoundTrip) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto header = [](std::uint64_t seq) {
    FrameHeader h;
    h.kind = FrameKind::kData;
    h.from = 1;
    h.to = 2;
    h.seq = seq;
    return h;
  };
  const Bytes small = to_bytes("vote");
  const Bytes empty;
  const Bytes large(100'000, 0xab);
  const Bytes huge(8u << 20, 0xcd);  // more than a socket buffer holds
  std::vector<std::pair<FrameHeader, Bytes>> got;
  std::thread reader([&] {
    FrameReader r(sv[1]);
    while (auto f = r.next()) got.push_back(std::move(*f));
  });

  const FrameHeader batch_h[] = {header(1), header(2), header(3)};
  const BytesView batch_p[] = {small, empty, large};
  EXPECT_EQ(write_frames(sv[0], batch_h, batch_p),
            static_cast<std::int64_t>(3 * FrameHeader::kWireSize +
                                      small.size() + large.size()));

  // The first 10 bytes of frame 4 go out by hand; write_frames skips them.
  FrameHeader h4 = header(4);
  h4.len = static_cast<std::uint32_t>(small.size());
  std::uint8_t wire[FrameHeader::kWireSize];
  h4.encode(wire);
  ASSERT_EQ(::send(sv[0], wire, 10, 0), 10);
  const BytesView p4 = small;
  EXPECT_EQ(write_frames(sv[0], std::span<const FrameHeader>(&h4, 1),
                         std::span<const BytesView>(&p4, 1), 10),
            static_cast<std::int64_t>(FrameHeader::kWireSize - 10 +
                                      small.size()));

  const FrameHeader h5 = header(5);
  const BytesView p5 = huge;
  const auto whole =
      static_cast<std::int64_t>(FrameHeader::kWireSize + huge.size());
  const std::int64_t part =
      write_frames(sv[0], std::span<const FrameHeader>(&h5, 1),
                   std::span<const BytesView>(&p5, 1), 0, /*dont_wait=*/true);
  ASSERT_GE(part, 0);
  EXPECT_LT(part, whole);
  EXPECT_EQ(write_frames(sv[0], std::span<const FrameHeader>(&h5, 1),
                         std::span<const BytesView>(&p5, 1),
                         static_cast<std::size_t>(part)),
            whole - part);
  ::shutdown(sv[0], SHUT_WR);
  reader.join();
  ::close(sv[0]);
  ::close(sv[1]);

  const Bytes* want[] = {&small, &empty, &large, &small, &huge};
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first.seq, i + 1);
    EXPECT_EQ(got[i].first.len, want[i]->size());
    EXPECT_TRUE(got[i].second == *want[i]) << "frame " << i + 1;
  }
}

TEST(TimerClamp, SharedHelperBounds) {
  EXPECT_EQ(sim::clamp_real_timer_delay(-5), 0);
  EXPECT_EQ(sim::clamp_real_timer_delay(0), 0);
  EXPECT_EQ(sim::clamp_real_timer_delay(1234), 1234);
  EXPECT_EQ(sim::clamp_real_timer_delay(sim::kMaxRealTimerDelay + 1),
            sim::kMaxRealTimerDelay);
  EXPECT_EQ(sim::clamp_real_timer_delay(std::numeric_limits<
                                            sim::Duration>::max()),
            sim::kMaxRealTimerDelay);
}

// Stop-and-wait client: sends sequence numbers to the echo peer, advances
// on each ack, retries the outstanding one on patience expiry (the same
// resubmit discipline D-DEMOS voters use, so a severed connection only
// delays completion).
class Ping final : public sim::Process {
 public:
  Ping(sim::NodeId peer, std::uint64_t total, sim::Duration patience)
      : peer_(peer), total_(total), patience_(patience) {}

  void on_start() override {
    send_current();
    ctx().set_timer(patience_);
  }
  void on_message(sim::NodeId, const Buffer& payload) override {
    Reader r(payload);
    std::uint64_t acked = r.u64();
    if (acked != current_.load()) return;  // stale retry echo
    if (acked + 1 == total_) {
      done_.store(true, std::memory_order_release);
      return;
    }
    current_.store(acked + 1);
    send_current();
  }
  void on_timer(std::uint64_t) override {
    if (done_.load(std::memory_order_acquire)) return;
    send_current();  // retry the outstanding sequence number
    ctx().set_timer(patience_);
  }

  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  void send_current() {
    Writer w;
    w.u64(current_.load());
    ctx().send(peer_, w.take());
  }
  sim::NodeId peer_;
  std::uint64_t total_;
  sim::Duration patience_;
  std::atomic<std::uint64_t> current_{0};
  std::atomic<bool> done_{false};
};

class Echo final : public sim::Process {
 public:
  void on_message(sim::NodeId from, const Buffer& payload) override {
    received_.fetch_add(1, std::memory_order_relaxed);
    ctx().send(from, Buffer::copy_of(payload));
  }
  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> received_{0};
};

// Builds the canonical two-instance cluster: node 0 (ping) on process 0,
// node 1 (echo) on process 1, both instances running the identical
// registration sequence so ids and names line up.
struct Cluster {
  TcpNet a, b;
  Ping* ping = nullptr;
  Echo* echo = nullptr;

  static TcpConfig config_for(std::uint32_t self) {
    TcpConfig cfg;
    cfg.self_process = self;
    cfg.election_id = to_bytes("tcp-net-test");
    cfg.node_process = {0, 1};
    return cfg;
  }

  Cluster(std::uint64_t total, sim::Duration patience)
      : a(config_for(0)), b(config_for(1)) {
    a.add_node(std::make_unique<Ping>(1, total, patience), "ping");
    a.add_node(std::make_unique<Echo>(), "echo");
    b.add_node(std::make_unique<Ping>(1, total, patience), "ping");
    b.add_node(std::make_unique<Echo>(), "echo");
    std::vector<TcpPeer> peers = {{"127.0.0.1", a.listen_port()},
                                  {"127.0.0.1", b.listen_port()}};
    a.set_peers(peers);
    b.set_peers(peers);
    ping = &dynamic_cast<Ping&>(a.process(0));
    echo = &dynamic_cast<Echo&>(b.process(1));
  }
};

TEST(TcpNet, LoopbackDeliveryAcrossProcesses) {
  constexpr std::uint64_t kTotal = 50;
  Cluster c(kTotal, scaled(5'000'000));  // patience >> run: no retries

  // Placeholder semantics: each instance hosts exactly its own node.
  EXPECT_TRUE(c.a.is_local(0));
  EXPECT_FALSE(c.a.is_local(1));
  EXPECT_FALSE(c.b.is_local(0));
  EXPECT_TRUE(c.b.is_local(1));
  EXPECT_EQ(c.a.node_name(1), "echo");
  EXPECT_THROW(c.a.process(1), ProtocolError);

  c.b.start();
  c.a.start();
  sim::RunOptions opts;
  opts.wall_timeout_us = scaled(30'000'000);
  ASSERT_TRUE(c.a.run_to_quiescence([&] { return c.ping->done(); }, opts));

  EXPECT_EQ(c.echo->received(), kTotal);
  EXPECT_EQ(c.a.frames_dropped(), 0u);
  EXPECT_EQ(c.b.frames_dropped(), 0u);
  EXPECT_GE(c.a.frames_sent(), kTotal);
  EXPECT_GE(c.b.frames_received(), kTotal);
  c.a.stop();
  c.b.stop();
}

TEST(TcpNet, SeverredConnectionsRedialAndComplete) {
  constexpr std::uint64_t kTotal = 200;
  Cluster c(kTotal, scaled(50'000));
  c.b.start();
  c.a.start();

  // Sever every data socket on both sides once the stream is mid-flight,
  // so completion can only happen through redial + retry.
  std::thread saboteur([&] {
    while (c.echo->received() < kTotal / 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    c.a.sever_connections();
    c.b.sever_connections();
  });
  sim::RunOptions opts;
  opts.wall_timeout_us = scaled(60'000'000);
  bool done = c.a.run_to_quiescence([&] { return c.ping->done(); }, opts);
  saboteur.join();
  ASSERT_TRUE(done);
  EXPECT_GE(c.a.reconnects() + c.b.reconnects(), 1u);
  // The echo peer saw every sequence number (retries may add extras, and
  // transport-level dedup keeps reconnect replays out of that count).
  EXPECT_GE(c.echo->received(), kTotal);
  c.a.stop();
  c.b.stop();
}

// Flood a peer that never answers its port: the writer can't drain, the
// bounded queue fills, and senders must drop (counted) instead of wedging.
class Flood final : public sim::Process {
 public:
  explicit Flood(std::uint64_t n) : n_(n) {}
  void on_start() override {
    for (std::uint64_t i = 0; i < n_; ++i) {
      Writer w;
      w.u64(i);
      ctx().send(1, w.take());
    }
    finished_.store(true, std::memory_order_release);
  }
  void on_message(sim::NodeId, const Buffer&) override {}
  bool finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  std::uint64_t n_;
  std::atomic<bool> finished_{false};
};

TEST(TcpNet, BackpressureDropsInsteadOfWedging) {
  TcpConfig cfg = Cluster::config_for(0);
  cfg.send_queue_frames = 4;
  cfg.send_block_us = 1'000;
  TcpNet net(std::move(cfg));
  net.add_node(std::make_unique<Flood>(100), "flood");
  net.add_remote("sink");
  // Port 1 on loopback: nothing listens, every dial is refused.
  net.set_peers({{"127.0.0.1", net.listen_port()}, {"127.0.0.1", 1}});
  Flood* flood = &dynamic_cast<Flood&>(net.process(0));

  net.start();  // on_start floods from this thread; must return
  ASSERT_TRUE(flood->finished());
  EXPECT_GT(net.frames_dropped(), 0u);
  EXPECT_LE(net.frames_sent(), 4u);  // nothing ever connected
  net.stop();  // and tear down cleanly with a non-empty queue
}

// Raw client speaking the wire protocol by hand: dials `net`'s data port
// and opens with a well-formed HELLO claiming `process`.
int dial_as(const TcpNet& net, std::uint32_t process) {
  int fd = tcp_dial("127.0.0.1", net.listen_port());
  EXPECT_GE(fd, 0);
  FrameHeader h;
  h.kind = FrameKind::kHello;
  h.from = process;
  Bytes hello =
      HelloBody{kFrameVersion, process, 1, to_bytes("tcp-net-test")}.encode();
  EXPECT_TRUE(write_frame(fd, h, hello));
  return fd;
}

bool send_data(int fd, sim::NodeId from, sim::NodeId to, std::uint64_t seq) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.from = from;
  h.to = to;
  h.seq = seq;
  Writer w;
  w.u64(0);  // Echo answers any payload
  return write_frame(fd, h, w.data());
}

// True once the receiver has closed the connection (EOF or reset). The
// receiver never writes on an inbound connection, so readable means closed.
bool closed_by_peer(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, static_cast<int>(scaled(5'000'000) / 1000)) <= 0) {
    return false;
  }
  char byte;
  return ::recv(fd, &byte, 1, 0) <= 0;
}

TEST(TcpNet, ImpersonatedFramesCloseTheConnection) {
  Cluster c(1, scaled(5'000'000));
  c.b.start();  // process 1 hosts echo (node 1); process 0 stays silent

  // A HELLO naming the receiver's own process, or one outside the peer
  // table, is refused before any data frame is read.
  for (std::uint32_t bogus : {1u, 2u, 0xffffffffu}) {
    int fd = dial_as(c.b, bogus);
    EXPECT_TRUE(closed_by_peer(fd)) << "hello as process " << bogus;
    ::close(fd);
  }

  // A valid HELLO as process 0: a frame from node 0 (hosted there) is
  // delivered; one claiming node 1 (hosted by process 1) closes the
  // connection and never reaches the Echo node.
  int fd = dial_as(c.b, 0);
  ASSERT_TRUE(send_data(fd, /*from=*/0, /*to=*/1, /*seq=*/1));
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(scaled(5'000'000));
  while (c.echo->received() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(c.echo->received(), 1u);
  ASSERT_TRUE(send_data(fd, /*from=*/1, /*to=*/1, /*seq=*/2));
  EXPECT_TRUE(closed_by_peer(fd));
  ::close(fd);
  c.b.stop();
  EXPECT_EQ(c.echo->received(), 1u);
  EXPECT_EQ(c.b.frames_received(), 1u);
}

}  // namespace
}  // namespace ddemos::net
