// Real multi-threaded in-process transport hosting the same Process state
// machines as the simulator: one worker thread per shard per node (plain
// Processes have a single shard), lock-protected per-shard mailboxes of
// shared Buffer handles, real wall-clock timers. Delivery is shard-affine:
// the sender thread asks a ShardedProcess which shard owns the message
// (keyed off the serial in the message header for VC nodes), so handlers
// for distinct shards run genuinely in parallel while same-shard handlers
// stay serialized — no locks on the per-ballot hot path. Used by
// integration tests, the fig5a shard sweep and examples to demonstrate the
// protocol under genuine concurrency; the simulator is used where
// determinism or scale is needed. Implements sim::RuntimeHost so election
// builders can target either backend through one interface.
//
// This is also the local half of the multi-process backend: net::TcpNet
// derives from ThreadNet, registers the nodes other processes host as
// name-only placeholders, and overrides route() to send their traffic
// over TCP. Everything that dispatches locally — mailboxes, timers,
// workers, the progress wait, the dispatched counter — exists only here.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/runtime.hpp"

namespace ddemos::net {

using sim::Duration;
using sim::NodeId;
using sim::Process;
using sim::TimePoint;

class ThreadNet : public sim::RuntimeHost {
 public:
  ThreadNet();
  ~ThreadNet() override;

  ThreadNet(const ThreadNet&) = delete;
  ThreadNet& operator=(const ThreadNet&) = delete;

  NodeId add_node(std::unique_ptr<Process> proc, std::string name) override;
  // Throws ProtocolError for a placeholder (the node lives in another
  // process; callers must check is_local()).
  Process& process(NodeId id) override;
  const std::string& node_name(NodeId id) const override;
  std::size_t node_count() const override { return nodes_.size(); }
  bool is_local(NodeId id) const override;

  // Delivers on_start to every node (on the caller's thread, so no shard
  // worker observes a message before its node started), then spawns one
  // worker thread per shard per node.
  void start() override;
  // Signals all workers and joins them. Idempotent: a second (or later)
  // call after completion is a no-op.
  void stop() override;

  // Wall-clock microseconds since start() (0 before the first start), plus
  // the clock offset (always 0 on a plain ThreadNet).
  sim::TimePoint now() const override;

  // Completion wait: blocks on a condition variable that every worker
  // signals after each handler invocation, re-evaluating `done` on each
  // wakeup — no sleep-and-poll. Requires a predicate (this backend has no
  // notion of natural quiescence: trustees poll forever). Returns false if
  // the wall-clock budget elapses first. `done` reads node state while
  // workers still run; it must restrict itself to monotonic completion
  // flags (result_published, push_complete, has_receipt).
  using sim::RuntimeHost::run_to_quiescence;
  bool run_to_quiescence(const std::function<bool()>& done,
                         const sim::RunOptions& options) override;

  // Largest inbox depth each shard of `id` ever reached (index = shard);
  // empty for a node not hosted here. Meaningful after stop(); reading it
  // mid-run is racy and only approximate.
  std::vector<std::size_t> shard_queue_high_water(NodeId id) const override;

  // Handler invocations (messages + timers) dispatched across all workers.
  // Exact after stop(); a mid-run read is a consistent lower bound.
  std::uint64_t events_dispatched() const override {
    return dispatched_.load(std::memory_order_relaxed);
  }

 protected:
  // Registers a name-only placeholder for a node hosted by another
  // process: it keeps ids and names aligned across the processes of a
  // cluster but has no process, mailbox or worker here.
  NodeId add_placeholder(std::string name);
  // The send path of every Context::send (send_self always delivers
  // locally). The default delivers to the local mailbox.
  virtual void route(NodeId from, NodeId to, Buffer payload) {
    deliver(to, from, std::move(payload));
  }
  // Enqueues into the mailbox of the shard that owns the message; drops
  // the message when `to` is not hosted here.
  void deliver(NodeId to, NodeId from, Buffer payload);
  // Wakes any run_to_quiescence waiter; called by workers after each
  // handler so completion predicates are re-checked promptly. Locking and
  // releasing progress_mu_ orders the worker's preceding state writes
  // before the waiter's predicate evaluation.
  void notify_progress();

  // Read by every worker thread without holding a node lock; stop() also
  // flips stop_ from outside the workers, so both must be atomic.
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  // Added to now(): a respawned TcpNet process resumes the cluster's
  // original time base (election-end timers are absolute offsets from
  // start()). Set before start().
  Duration clock_offset_ = 0;

 private:
  class NodeContext;
  struct Mail {
    NodeId from;
    Buffer payload;  // refcounted: multicast senders share one allocation
  };
  struct Timer {
    std::chrono::steady_clock::time_point due;
    std::uint64_t token;
    // Min-heap order: earliest due first, equal deadlines in arm order
    // (tokens are monotonic per node and every timer lives on shard 0).
    bool operator>(const Timer& o) const {
      return std::tie(due, token) > std::tie(o.due, o.token);
    }
  };
  // One mailbox + worker per shard. The shard mutex only guards the
  // inbox/timer containers (enqueue vs. drain); handler execution itself
  // is exclusive per shard by construction — exactly one worker drains a
  // shard — so process state partitioned by shard needs no locking.
  struct Shard {
    std::thread worker;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Mail> inbox;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
    std::size_t inbox_high_water = 0;  // guarded by mu
  };
  // A hosted node, or a placeholder (null proc, no shards).
  struct Node {
    std::unique_ptr<Process> proc;
    // Non-null when proc is a ShardedProcess (cached dynamic_cast).
    sim::ShardedProcess* sharded = nullptr;
    std::unique_ptr<NodeContext> ctx;
    std::string name;
    std::vector<std::unique_ptr<Shard>> shards;
    // Timer tokens are node-wide (handlers compare them across shards);
    // atomic because any shard worker may arm a timer.
    std::atomic<std::uint64_t> next_token{1};
  };

  void worker_loop(Node& node, Shard& shard);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::chrono::steady_clock::time_point epoch_;
  bool started_once_ = false;
  // Number of run_to_quiescence waiters; workers skip the notify entirely
  // (no lock, no syscall) while it is zero, keeping the per-handler cost
  // of the completion-wait machinery off the transport's hot path.
  std::atomic<int> progress_waiters_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;
};

}  // namespace ddemos::net
