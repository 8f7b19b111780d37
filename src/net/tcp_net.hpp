// Multi-process socket transport: the third sim::RuntimeHost. A TcpNet
// instance lives in one OS process of a cluster and hosts the subset of the
// election's nodes assigned to that process; every other node is a remote
// placeholder, and traffic to it rides TCP. TcpNet *is* a ThreadNet: the
// local half — one worker thread per shard per node, lock-protected
// mailboxes of shared Buffer handles, real-clock timers, the progress-
// notify completion wait — is inherited, not copied, so shard-affine
// dispatch semantics are identical across all three backends. TcpNet adds
// only the send route for non-local destinations and the socket plumbing.
//
// The remote half:
//  * one Connection per destination process, created lazily at first send,
//    with a bounded send queue and a dedicated writer thread. Enqueueing a
//    frame is a cheap Buffer handle copy (an N-process multicast still pays
//    one payload allocation). A sender whose connection is idle writes its
//    frame itself, without blocking; otherwise the frame queues and the
//    writer scatter-writes every queued header + shared payload with one
//    sendmsg. A reader takes what its socket holds with one recv. So a
//    busy connection pays a syscall per batch rather than per frame, and
//    a quiet one no thread wakeup per frame.
//  * backpressure: when the queue is full the sender blocks up to
//    send_block_us for space, then drops the frame and counts it —
//    Context::send is documented unreliable, and D-DEMOS voters resubmit
//    on patience timeout, so dropping beats wedging a shard worker whose
//    peer died.
//  * handshake/reconnect: a writer dials with exponential backoff, sends a
//    HELLO (version, process index, election id) before any data, and on a
//    broken pipe redials and resends the in-flight frames. Receivers track
//    the last sequence number seen per source process (state on the
//    TcpNet, surviving reconnects) and drop seq <= last, making the resend
//    idempotent even for protocol steps that are not (VC->BB push).
//  * an accept thread + one reader thread per inbound connection validate
//    the HELLO (wrong election id, this process's own index or one outside
//    the peer table => connection closed) and deliver data frames into the
//    local shard mailboxes. A data frame whose sender is not hosted by the
//    HELLO'd process also closes the connection: a peer speaks only for
//    its own nodes. The HELLO itself is not authenticated (DESIGN.md 2.2).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/buffer.hpp"
#include "net/thread_net.hpp"

namespace ddemos::net {

struct TcpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct TcpConfig {
  // This process's index in the cluster (launcher convention: 0 = the
  // launcher/client process, 1..P = protocol node processes).
  std::uint32_t self_process = 0;
  // Rejects cross-election connections in the HELLO.
  Bytes election_id;
  // node_process[id] = hosting process for the protocol-node id prefix;
  // every id at or beyond the vector (voters, load generators) lives on
  // default_process.
  std::vector<std::uint32_t> node_process;
  std::uint32_t default_process = 0;
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  // 0 = ephemeral, see listen_port()
  // This process's incarnation, carried in the HELLO. A respawned process
  // (crash recovery) starts a fresh outbound sequence space; bumping the
  // incarnation tells receivers to reset their per-process dedup floor
  // instead of silently discarding every frame the newcomer sends.
  std::uint64_t incarnation = 1;
  // Added to now(): a respawned process resumes the cluster's original
  // time base (election-end timers are absolute offsets from start()), so
  // the launcher passes the age of the election here.
  Duration clock_offset_us = 0;
  // Send-side backpressure: per-connection queue bound and how long a
  // sender blocks for space before dropping the frame.
  std::size_t send_queue_frames = 4096;
  Duration send_block_us = 200'000;
  // Redial backoff window (doubles from min to max per failed dial).
  Duration dial_backoff_min_us = 2'000;
  Duration dial_backoff_max_us = 500'000;
};

class TcpNet final : public ThreadNet {
 public:
  // Binds the data listener immediately (so the ephemeral port can be
  // exchanged before any node exists) but accepts nothing until start().
  explicit TcpNet(TcpConfig cfg);
  // Runs TcpNet's own stop(): ThreadNet's destructor would only stop the
  // local half, leaving writers, the acceptor and readers running.
  ~TcpNet() override;

  // The bound data port (the configured one, or the ephemeral pick).
  std::uint16_t listen_port() const { return listen_port_; }
  // Address table, indexed by process; must cover every process that any
  // registered node maps to. Call before start().
  void set_peers(std::vector<TcpPeer> peers);

  // Hosts a node locally if its id maps to self_process; otherwise the
  // process is discarded and the id becomes a remote placeholder, so the
  // exact same build_election code path runs in every process of the
  // cluster and produces the same id/name assignment.
  NodeId add_node(std::unique_ptr<Process> proc, std::string name) override;
  // Registers a remote placeholder without constructing the node at all
  // (bench clusters skip building 10^6-ballot VC state client-side).
  NodeId add_remote(std::string name);

  // The accept thread first (a peer that started earlier may already be
  // dialing), then ThreadNet::start: on_start for local nodes on the
  // caller's thread, then the shard workers.
  void start() override;
  // Joins the shard workers first, so node state settles, then the
  // writers, the acceptor and the readers; closes every socket.
  // Idempotent.
  void stop() override;

  // Late override of TcpConfig::clock_offset_us: a respawned node process
  // learns the election's age from the GO body, after the node rebuild.
  // Call before start().
  void set_clock_offset(Duration offset_us) { clock_offset_ = offset_us; }

  // Wakes a run_to_quiescence waiter whose predicate depends on state
  // outside the transport (launcher control-plane status updates).
  void notify_external() { notify_progress(); }

  // Fault injection: shuts down every established data socket (outbound
  // and inbound). Writers redial with backoff and resend the in-flight
  // frames; receiver-side dedup keeps the replay invisible to protocol
  // code.
  void sever_connections();

  // --- transport counters (monotonic; exact after stop()) ---
  std::uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }
  // Frames dropped by send-side backpressure (full queue past the block
  // budget).
  std::uint64_t frames_dropped() const {
    return frames_dropped_.load(std::memory_order_relaxed);
  }
  // Successful re-dials after an established connection broke.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  // Frames suppressed by receive-side sequence dedup (reconnect replays).
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }

 protected:
  // Local destinations go to the mailboxes, the rest over TCP. Keyed on
  // process_of rather than is_local: unregistered ids (voters) route to
  // default_process.
  void route(NodeId from, NodeId to, Buffer payload) override;

 private:
  struct OutFrame {
    NodeId from, to;
    std::uint64_t seq;
    Buffer payload;
  };
  // One per destination process; owns the outbound socket and its writer.
  struct Connection {
    std::uint32_t process = 0;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv_space;  // senders wait for queue room
    std::condition_variable cv_data;   // writer waits for frames
    std::deque<OutFrame> queue;        // guarded by mu
    std::uint64_t next_seq = 1;        // guarded by mu
    int fd = -1;                       // guarded by mu (writer/sever/stop)
    bool stop = false;                 // guarded by mu
    // Guarded by mu: a thread (the writer, or a sender writing inline on
    // an idle connection) is writing to fd outside the lock; nobody else
    // writes, closes fd or pops the queue meanwhile.
    bool writing = false;
    // Guarded by mu: bytes of queue.front() already on the current fd (an
    // inline write the socket buffer cut short).
    std::size_t head_sent = 0;
  };
  // Frames a writer takes from its queue per write_frames call.
  static constexpr std::size_t kMaxBatch = 256;
  struct Inbound {
    int fd = -1;
    std::thread reader;
  };

  std::uint32_t process_of(NodeId id) const;
  void send_remote(NodeId from, NodeId to, Buffer payload);
  Connection& connection_to(std::uint32_t process);
  void writer_loop(Connection& conn);
  void accept_loop();
  void reader_loop(Inbound& in);

  TcpConfig cfg_;
  std::vector<TcpPeer> peers_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::thread accept_thread_;
  // Self-pipe: the acceptor's poll() has no timeout; stop() writes a byte
  // here to wake it.
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  // Outbound connections, keyed by destination process. The map is
  // populated lazily under conns_mu_; Connection objects are stable once
  // created (unique_ptr) so senders hold only the per-connection lock.
  std::mutex conns_mu_;
  std::map<std::uint32_t, std::unique_ptr<Connection>> conns_;

  // Inbound connections (accepted sockets + their reader threads).
  std::mutex inbound_mu_;
  std::vector<std::unique_ptr<Inbound>> inbound_;

  // Receive-side dedup: highest (incarnation, seq) seen per source
  // process. Lives here (not on the connection) so it survives
  // reconnects; a HELLO carrying a higher incarnation (the peer process
  // was respawned after a crash and restarts its sequence space at 1)
  // resets that process's floor, while a stale lower incarnation is
  // rejected at handshake.
  std::mutex last_seq_mu_;
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> last_seq_;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
};

}  // namespace ddemos::net
