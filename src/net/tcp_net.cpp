#include "net/tcp_net.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "net/tcp_frame.hpp"
#include "util/error.hpp"

namespace ddemos::net {

TcpNet::TcpNet(TcpConfig cfg) : cfg_(std::move(cfg)) {
  clock_offset_ = cfg_.clock_offset_us;
  listen_fd_ = tcp_listen(cfg_.listen_host, cfg_.listen_port, &listen_port_);
  int wake[2];
  if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) != 0) {
    ::close(listen_fd_);
    throw ProtocolError("TcpNet: pipe2() failed");
  }
  wake_rd_ = wake[0];
  wake_wr_ = wake[1];
}

TcpNet::~TcpNet() {
  stop();
  for (int* fd : {&listen_fd_, &wake_rd_, &wake_wr_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void TcpNet::set_peers(std::vector<TcpPeer> peers) {
  if (running_.load(std::memory_order_acquire)) {
    throw ProtocolError("TcpNet: set_peers after start");
  }
  peers_ = std::move(peers);
}

std::uint32_t TcpNet::process_of(NodeId id) const {
  if (id < cfg_.node_process.size()) return cfg_.node_process[id];
  return cfg_.default_process;
}

NodeId TcpNet::add_node(std::unique_ptr<Process> proc, std::string name) {
  if (process_of(static_cast<NodeId>(node_count())) != cfg_.self_process) {
    // Remote placeholder: the same build code path runs in every process,
    // so ids/names stay aligned; only the locally hosted nodes are kept.
    return add_placeholder(std::move(name));
  }
  return ThreadNet::add_node(std::move(proc), std::move(name));
}

NodeId TcpNet::add_remote(std::string name) {
  if (process_of(static_cast<NodeId>(node_count())) == cfg_.self_process) {
    throw ProtocolError("TcpNet: add_remote for a locally hosted id");
  }
  return add_placeholder(std::move(name));
}

void TcpNet::route(NodeId from, NodeId to, Buffer payload) {
  if (process_of(to) == cfg_.self_process) {
    deliver(to, from, std::move(payload));
  } else {
    send_remote(from, to, std::move(payload));
  }
}

TcpNet::Connection& TcpNet::connection_to(std::uint32_t process) {
  std::scoped_lock lk(conns_mu_);
  auto it = conns_.find(process);
  if (it != conns_.end()) return *it->second;
  if (process >= peers_.size()) {
    throw ProtocolError("TcpNet: no peer address for process " +
                        std::to_string(process));
  }
  auto conn = std::make_unique<Connection>();
  conn->process = process;
  Connection& ref = *conn;
  conns_.emplace(process, std::move(conn));
  ref.writer = std::thread([this, &ref] { writer_loop(ref); });
  return ref;
}

namespace {

FrameHeader data_header(NodeId from, NodeId to, std::uint64_t seq) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.from = from;
  h.to = to;
  h.seq = seq;
  return h;
}

}  // namespace

void TcpNet::send_remote(NodeId from, NodeId to, Buffer payload) {
  Connection& conn = connection_to(process_of(to));
  std::unique_lock lk(conn.mu);
  if (conn.queue.size() >= cfg_.send_queue_frames) {
    // Backpressure: block briefly for space, then drop. Context::send is
    // documented unreliable; wedging a shard worker on a dead peer would
    // trade a resubmittable message for cluster liveness.
    conn.cv_space.wait_for(
        lk, std::chrono::microseconds(cfg_.send_block_us), [&] {
          return conn.stop || conn.queue.size() < cfg_.send_queue_frames;
        });
    if (conn.stop || conn.queue.size() >= cfg_.send_queue_frames) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (conn.stop) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The sequence number is fixed at enqueue time and travels with the
  // frame through any number of resends, which is what makes reconnect
  // replays detectable at the receiver.
  OutFrame frame{from, to, conn.next_seq++, std::move(payload)};
  if (conn.fd < 0 || conn.writing || !conn.queue.empty()) {
    conn.queue.push_back(std::move(frame));
    lk.unlock();
    conn.cv_data.notify_all();
    return;
  }
  // Idle connection: write the frame from this thread, as far as the
  // socket buffer takes it without blocking. That spares the writer a
  // wakeup per frame; `writing` keeps the writer and other senders (who
  // queue behind) off the socket meanwhile.
  conn.writing = true;
  const int fd = conn.fd;
  lk.unlock();
  const FrameHeader h = data_header(frame.from, frame.to, frame.seq);
  const BytesView view = frame.payload.view();
  const std::int64_t wrote =
      write_frames(fd, std::span<const FrameHeader>(&h, 1),
                   std::span<const BytesView>(&view, 1), 0, /*dont_wait=*/true);
  const auto whole =
      static_cast<std::int64_t>(FrameHeader::kWireSize + view.size());
  lk.lock();
  conn.writing = false;
  if (wrote == whole) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Socket buffer full or connection broken: the writer finishes the
    // frame, or redials and resends it whole, ahead of the frames queued
    // meanwhile (their seqs are higher).
    if (wrote < 0) {
      ::close(conn.fd);
      conn.fd = -1;
      conn.head_sent = 0;
    } else {
      conn.head_sent = static_cast<std::size_t>(wrote);
    }
    conn.queue.push_front(std::move(frame));
  }
  const bool wake = conn.stop || !conn.queue.empty();
  lk.unlock();
  if (wake) conn.cv_data.notify_all();
}

void TcpNet::writer_loop(Connection& conn) {
  const TcpPeer peer = peers_.at(conn.process);
  Duration backoff = cfg_.dial_backoff_min_us;
  bool ever_connected = false;
  // Reused across batches: the frames being written, their headers and
  // payload views.
  std::vector<OutFrame> batch;
  std::vector<FrameHeader> headers;
  std::vector<BytesView> payloads;
  std::unique_lock lk(conn.mu);
  for (;;) {
    conn.cv_data.wait(lk, [&] {
      return conn.stop || (!conn.queue.empty() && !conn.writing);
    });
    if (conn.stop) break;
    if (conn.fd < 0) {
      lk.unlock();
      int fd = tcp_dial(peer.host, peer.port);
      if (fd >= 0) {
        // HELLO before any data: the receiver needs the source process for
        // sequence dedup and rejects cross-election connections outright.
        FrameHeader h;
        h.kind = FrameKind::kHello;
        h.from = cfg_.self_process;
        Bytes hello = HelloBody{kFrameVersion, cfg_.self_process,
                                cfg_.incarnation, cfg_.election_id}
                          .encode();
        if (!write_frame(fd, h, hello)) {
          ::close(fd);
          fd = -1;
        }
      }
      if (fd < 0) {
        // Exponential-backoff redial, sliced so stop() stays responsive.
        Duration slept = 0;
        while (slept < backoff && !stop_.load(std::memory_order_acquire)) {
          Duration slice = std::min<Duration>(backoff - slept, 10'000);
          std::this_thread::sleep_for(std::chrono::microseconds(slice));
          slept += slice;
        }
        backoff = std::min(backoff * 2, cfg_.dial_backoff_max_us);
        lk.lock();
        continue;
      }
      if (ever_connected) reconnects_.fetch_add(1, std::memory_order_relaxed);
      ever_connected = true;
      backoff = cfg_.dial_backoff_min_us;
      lk.lock();
      if (conn.stop) {
        ::close(fd);
        break;
      }
      conn.fd = fd;
      conn.head_sent = 0;  // a new stream: any cut-off frame goes again whole
    }
    // Write everything queued (up to kMaxBatch frames) in one go. The
    // frames stay at the head of the queue until the write succeeds: a
    // broken pipe redials and resends them (the receiver's seq dedup
    // absorbs any the peer already processed).
    const std::size_t n = std::min(conn.queue.size(), kMaxBatch);
    batch.assign(conn.queue.begin(),
                 conn.queue.begin() + static_cast<std::ptrdiff_t>(n));
    const std::size_t skip = conn.head_sent;
    const int fd = conn.fd;
    conn.writing = true;
    lk.unlock();
    headers.clear();
    payloads.clear();
    for (const OutFrame& frame : batch) {
      headers.push_back(data_header(frame.from, frame.to, frame.seq));
      payloads.push_back(frame.payload.view());
    }
    const bool ok = write_frames(fd, headers, payloads, skip) >= 0;
    payloads.clear();
    batch.clear();  // drop the payload references outside the lock
    lk.lock();
    conn.writing = false;
    conn.head_sent = 0;
    if (ok) {
      // Senders only append while `writing` is set, so the written frames
      // are still in front.
      conn.queue.erase(conn.queue.begin(),
                       conn.queue.begin() + static_cast<std::ptrdiff_t>(n));
      frames_sent_.fetch_add(n, std::memory_order_relaxed);
      lk.unlock();
      conn.cv_space.notify_all();
      lk.lock();
    } else {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  // A sender may still be writing inline; it notifies once done.
  conn.cv_data.wait(lk, [&] { return !conn.writing; });
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

void TcpNet::accept_loop() {
  pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
  while (!stop_.load(std::memory_order_acquire)) {
    if (::poll(pfds, 2, -1) <= 0) continue;
    if (pfds[1].revents != 0) {
      // Woken by stop() (or a byte left over from an earlier stop):
      // drain the pipe and re-check stop_.
      char buf[16];
      while (::read(wake_rd_, buf, sizeof buf) > 0) {
      }
      continue;
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::scoped_lock lk(inbound_mu_);
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    Inbound& ref = *in;
    inbound_.push_back(std::move(in));
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
  }
}

void TcpNet::reader_loop(Inbound& in) {
  const int fd = in.fd;
  // The reader is the only closer of an inbound fd; sever/stop just
  // shutdown() it. Closing under inbound_mu_ keeps their fd>=0 checks
  // from racing a concurrent close + fd-number reuse.
  auto close_in = [&] {
    std::scoped_lock lk(inbound_mu_);
    ::close(fd);
    in.fd = -1;
  };
  // First frame must be a valid HELLO for this election.
  FrameReader reader(fd);
  std::uint32_t peer_process = 0;
  std::uint64_t peer_incarnation = 0;
  {
    auto first = reader.next();
    if (!first || first->first.kind != FrameKind::kHello) {
      close_in();
      return;
    }
    try {
      HelloBody hello = HelloBody::decode(first->second);
      if (hello.version != kFrameVersion ||
          hello.election_id != cfg_.election_id) {
        throw CodecError("tcp hello: wrong election/version");
      }
      // No honest peer claims this process's own index or one outside the
      // peer table; refusing them also keeps attacker-chosen indices from
      // growing last_seq_.
      if (hello.process == cfg_.self_process ||
          hello.process >= peers_.size()) {
        throw CodecError("tcp hello: unknown process");
      }
      peer_process = hello.process;
      peer_incarnation = hello.incarnation;
    } catch (const CodecError&) {
      close_in();
      return;
    }
    // A respawned peer restarts its sequence space at 1 under a higher
    // incarnation: reset its dedup floor so its fresh traffic is not
    // silently swallowed. A *lower* incarnation is a stale pre-crash
    // socket racing the respawn — refuse it outright.
    bool stale = false;
    {
      std::scoped_lock lk(last_seq_mu_);
      auto& [inc, last] = last_seq_[peer_process];
      if (peer_incarnation > inc) {
        inc = peer_incarnation;
        last = 0;
      } else if (peer_incarnation < inc) {
        stale = true;
      }
    }
    if (stale) {
      close_in();
      return;
    }
  }
  while (auto frame = reader.next()) {
    if (frame->first.kind != FrameKind::kData) continue;
    // A peer speaks only for the nodes it hosts: a frame claiming another
    // process's node is an impersonation attempt, so fail closed.
    if (process_of(frame->first.from) != peer_process) break;
    {
      // Reconnect replay suppression: the per-source high-water mark lives
      // on the TcpNet (not the connection) so it survives redials.
      std::scoped_lock lk(last_seq_mu_);
      auto& [inc, last] = last_seq_[peer_process];
      if (inc != peer_incarnation) break;  // superseded by a respawn
      if (frame->first.seq <= last) {
        duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      last = frame->first.seq;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    deliver(frame->first.to, frame->first.from,
            Buffer(std::move(frame->second)));
  }
  close_in();
}

void TcpNet::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  // Accept before on_start: a peer that started first may already be
  // dialing, and its pre-start traffic must queue in mailboxes, not get
  // connection-refused into a redial cycle. Reader threads may enqueue
  // mail before the shard workers exist — it just sits in mailboxes.
  accept_thread_ = std::thread([this] { accept_loop(); });
  ThreadNet::start();
}

void TcpNet::sever_connections() {
  {
    std::scoped_lock lk(conns_mu_);
    for (auto& [proc, conn] : conns_) {
      std::scoped_lock cl(conn->mu);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  {
    std::scoped_lock lk(inbound_mu_);
    for (auto& in : inbound_) {
      if (in->fd >= 0) ::shutdown(in->fd, SHUT_RDWR);
    }
  }
}

void TcpNet::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // 1. Shard workers: wake and join, so node state settles first. This
  // also raises stop_, which the acceptor and redial backoff check.
  ThreadNet::stop();
  // 2. Outbound writers: flag, shut the socket under the write, wake, join.
  {
    std::scoped_lock lk(conns_mu_);
    for (auto& [proc, conn] : conns_) {
      {
        std::scoped_lock cl(conn->mu);
        conn->stop = true;
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
      conn->cv_data.notify_all();
      conn->cv_space.notify_all();
    }
    for (auto& [proc, conn] : conns_) {
      if (conn->writer.joinable()) conn->writer.join();
    }
  }
  // 3. Accept loop (woken through the self-pipe), then inbound readers.
  const char wake = 1;
  if (::write(wake_wr_, &wake, 1) < 0) {
    // Pipe full: a wake byte is already pending.
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::scoped_lock lk(inbound_mu_);
    for (auto& in : inbound_) {
      if (in->fd >= 0) ::shutdown(in->fd, SHUT_RDWR);
    }
  }
  // Readers remove themselves via FrameReader::next() returning nullopt; the
  // vector itself is only mutated by the (joined) accept thread.
  for (auto& in : inbound_) {
    if (in->reader.joinable()) in->reader.join();
  }
}

}  // namespace ddemos::net
