#include "net/thread_net.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ddemos::net {

class ThreadNet::NodeContext final : public sim::Context {
 public:
  NodeContext(ThreadNet* net, NodeId id) : net_(net), id_(id) {}

  void send(NodeId to, Buffer payload) override {
    net_->route(id_, to, std::move(payload));
  }

  // Intra-node coordination never leaves the process, and this transport
  // is already reliable, so the loopback is a plain local delivery (shard
  // routing applies as usual).
  void send_self(Buffer payload) override {
    net_->deliver(id_, id_, std::move(payload));
  }

  std::uint64_t set_timer(Duration after) override {
    Node& n = *net_->nodes_.at(id_);
    after = sim::clamp_real_timer_delay(after);
    // Timers fire on shard 0 (the control shard; see sim::Context). Any
    // shard worker — and stop()/start() — may touch the timer heap, so
    // take the shard lock.
    Shard& s = *n.shards.front();
    std::uint64_t token = n.next_token.fetch_add(1, std::memory_order_relaxed);
    {
      std::scoped_lock lk(s.mu);
      s.timers.push(Timer{std::chrono::steady_clock::now() +
                              std::chrono::microseconds(after),
                          token});
    }
    s.cv.notify_all();
    return token;
  }

  TimePoint now() const override { return net_->now(); }
  NodeId self() const override { return id_; }
  void charge(Duration) override {}  // real CPU time is real here

 private:
  ThreadNet* net_;
  NodeId id_;
};

ThreadNet::ThreadNet() = default;
ThreadNet::~ThreadNet() { stop(); }

NodeId ThreadNet::add_placeholder(std::string name) {
  if (running_.load(std::memory_order_acquire)) {
    throw ProtocolError("ThreadNet: node '" + name + "' added after start");
  }
  auto node = std::make_unique<Node>();
  node->name = std::move(name);
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId ThreadNet::add_node(std::unique_ptr<Process> proc, std::string name) {
  NodeId id = add_placeholder(std::move(name));
  Node& node = *nodes_.back();
  node.proc = std::move(proc);
  node.sharded = dynamic_cast<sim::ShardedProcess*>(node.proc.get());
  node.ctx = std::make_unique<NodeContext>(this, id);
  node.proc->bind(node.ctx.get());
  std::size_t shards =
      node.sharded ? std::max<std::size_t>(node.sharded->shard_count(), 1)
                   : 1;
  node.shards.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    node.shards.push_back(std::make_unique<Shard>());
  }
  return id;
}

bool ThreadNet::is_local(NodeId id) const {
  return id < nodes_.size() && nodes_[id]->proc != nullptr;
}

Process& ThreadNet::process(NodeId id) {
  const Node& n = *nodes_.at(id);
  if (!n.proc) {
    throw ProtocolError("ThreadNet: node '" + n.name +
                        "' is hosted by another process");
  }
  return *n.proc;
}

const std::string& ThreadNet::node_name(NodeId id) const {
  return nodes_.at(id)->name;
}

void ThreadNet::deliver(NodeId to, NodeId from, Buffer payload) {
  if (!is_local(to)) return;  // unknown or remote destination: drop
  Node& n = *nodes_[to];
  // Shard-affine dispatch: the sender thread resolves the owning shard
  // from the message header, so same-shard handlers serialize through one
  // mailbox and cross-shard traffic never contends.
  std::size_t shard = 0;
  if (n.sharded) {
    shard = n.sharded->shard_of(from, payload);
    if (shard >= n.shards.size()) shard = 0;
  }
  Shard& s = *n.shards[shard];
  {
    std::scoped_lock lk(s.mu);
    s.inbox.push_back(Mail{from, std::move(payload)});
    s.inbox_high_water = std::max(s.inbox_high_water, s.inbox.size());
  }
  s.cv.notify_all();
}

void ThreadNet::start() {
  if (running_.load(std::memory_order_acquire)) return;
  running_.store(true, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  epoch_ = std::chrono::steady_clock::now();
  started_once_ = true;
  // on_start runs on this thread, for every node, before any worker
  // exists: a shard worker can therefore never dispatch a message into a
  // process that has not started (on_start sends/timers just queue).
  for (auto& node : nodes_) {
    if (node->proc) node->proc->on_start();
  }
  for (auto& node : nodes_) {
    for (auto& shard : node->shards) {
      shard->worker = std::thread(
          [this, n = node.get(), s = shard.get()] { worker_loop(*n, *s); });
    }
  }
}

sim::TimePoint ThreadNet::now() const {
  if (!started_once_) return clock_offset_;
  return clock_offset_ +
         std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
             .count();
}

std::vector<std::size_t> ThreadNet::shard_queue_high_water(NodeId id) const {
  if (!is_local(id)) return {};
  const Node& n = *nodes_[id];
  std::vector<std::size_t> out;
  out.reserve(n.shards.size());
  for (auto& shard : n.shards) {
    std::scoped_lock lk(shard->mu);
    out.push_back(shard->inbox_high_water);
  }
  return out;
}

void ThreadNet::notify_progress() {
  if (progress_waiters_.load(std::memory_order_acquire) == 0) return;
  // Locking and releasing the mutex orders this worker's preceding state
  // writes before the waiter's next predicate evaluation. try_lock keeps
  // workers from serializing here under load: if the waiter (or another
  // notifier) holds the mutex, the waiter is already awake or will re-check
  // within its 100ms bounded wait, so skipping this notify is safe.
  std::unique_lock lk(progress_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;
  lk.unlock();
  progress_cv_.notify_all();
}

bool ThreadNet::run_to_quiescence(const std::function<bool()>& done,
                                  const sim::RunOptions& options) {
  if (!done) {
    throw ProtocolError(
        "ThreadNet::run_to_quiescence requires a completion predicate");
  }
  if (!running_.load(std::memory_order_acquire)) {
    // Auto-start a fresh net, but never resurrect a stopped one: start()
    // re-delivers on_start to every node, which would replay the protocol
    // over completed state.
    if (started_once_) {
      throw ProtocolError("ThreadNet: cannot run_to_quiescence after stop");
    }
    start();
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(options.wall_timeout_us);
  // RAII so a throwing predicate or probe cannot leak the waiter count
  // (which would leave every worker paying the notify cost forever).
  struct WaiterGuard {
    std::atomic<int>& count;
    explicit WaiterGuard(std::atomic<int>& c) : count(c) {
      count.fetch_add(1, std::memory_order_acq_rel);
    }
    ~WaiterGuard() { count.fetch_sub(1, std::memory_order_acq_rel); }
  } guard(progress_waiters_);
  std::unique_lock lk(progress_mu_);
  for (;;) {
    if (options.probe) options.probe();
    if (done()) return true;
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return done();
    // Bounded wait: a worker that read progress_waiters_ just before this
    // waiter registered may skip one notify, so cap the sleep instead of
    // trusting every wakeup to arrive (recurring timers re-notify anyway).
    // TcpNet's control-plane updates notify from outside the workers and
    // are no better ordered against the registration.
    progress_cv_.wait_until(
        lk, std::min(deadline, now + std::chrono::milliseconds(100)));
  }
}

void ThreadNet::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  for (auto& node : nodes_) {
    for (auto& shard : node->shards) {
      // Take the shard lock before notifying: a worker that already
      // checked stop_ but has not started waiting yet holds the lock, so
      // this cannot slip into the gap and lose the wakeup.
      std::scoped_lock lk(shard->mu);
      shard->cv.notify_all();
    }
  }
  for (auto& node : nodes_) {
    for (auto& shard : node->shards) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }
  running_.store(false, std::memory_order_release);
}

void ThreadNet::worker_loop(Node& node, Shard& shard) {
  std::unique_lock lk(shard.mu);
  while (!stop_.load(std::memory_order_acquire)) {
    auto now = std::chrono::steady_clock::now();
    // Fire due timers, earliest first (equal deadlines in arm order).
    std::vector<std::uint64_t> due;
    while (!shard.timers.empty() && shard.timers.top().due <= now) {
      due.push_back(shard.timers.top().token);
      shard.timers.pop();
    }
    for (std::uint64_t token : due) {
      lk.unlock();
      node.proc->on_timer(token);
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      notify_progress();
      lk.lock();
    }
    if (!shard.inbox.empty()) {
      Mail m = std::move(shard.inbox.front());
      shard.inbox.pop_front();
      lk.unlock();
      node.proc->on_message(m.from, m.payload);
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      notify_progress();
      lk.lock();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    // Sleep until next timer or new mail.
    if (shard.timers.empty()) {
      shard.cv.wait_for(lk, std::chrono::milliseconds(50));
    } else {
      shard.cv.wait_until(lk, shard.timers.top().due);
    }
  }
}

}  // namespace ddemos::net
