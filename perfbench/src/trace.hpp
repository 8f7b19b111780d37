// Tracing from outside the library: decorators around the public host,
// process and ballot-store interfaces record one span per handler call
// (wall start/end, handler thread CPU, time the message waited since
// Context::send) without any change to library code. Spans stay in memory
// and are written out when the run ends.
//
// How the decorators hook in:
//  * TraceHost forwards every sim::RuntimeHost call to the real backend,
//    but wraps each added Process in a TracedProcess; process(id) hands
//    back the inner node, so callers' dynamic_casts keep working.
//  * TracedProcess is a sim::ShardedProcess that forwards shard_count and
//    shard_of, so the backend dispatches exactly as it would to the node.
//    Process::bind is not virtual, so the inner node is bound to the
//    wrapper itself, acting as a forwarding Context, in on_start.
//  * Every send is stamped by (payload pointer, destination); the
//    receiving wrapper takes the stamp back to get the queue wait.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/runtime.hpp"
#include "store/ballot_store.hpp"

namespace perfbench {

enum class NodeKind : std::uint8_t { kVc, kBb, kTrustee, kClient };
NodeKind kind_of(const std::string& node_name);

// Message-type byte of a span; timers get their own pseudo type.
inline constexpr std::uint8_t kTimerSpan = 0;

struct Span {
  std::int64_t start_ns = 0, end_ns = 0;  // steady clock
  std::int64_t cpu_ns = 0;                // handler thread CPU
  std::int64_t wait_ns = -1;              // send -> handler start; -1 unknown
  std::uint32_t node = 0;
  NodeKind kind = NodeKind::kClient;
  std::uint8_t type = kTimerSpan;
};

class Tracer {
 public:
  void stamp(const void* payload, ddemos::sim::NodeId to, std::size_t bytes);
  // Queue wait of a stamped message (and forgets the stamp); -1 if none.
  std::int64_t take_wait(const void* payload, ddemos::sim::NodeId to,
                         std::int64_t now_ns);

  std::uint64_t sends() const { return sends_.load(); }
  std::uint64_t send_bytes() const { return send_bytes_.load(); }

  // Per-node, per-shard span buffers; registered by TracedProcess.
  std::vector<Span>* buffer();
  // All spans; read only once the host has stopped.
  std::vector<Span> spans() const;
  // Writes the spans as CSV (one line per span).
  void dump(const std::string& path) const;

 private:
  struct Key {
    const void* payload;
    ddemos::sim::NodeId to;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.payload) * 31 + k.to;
    }
  };
  std::mutex stamps_mu_;
  std::unordered_map<Key, std::int64_t, KeyHash> stamps_;  // guarded
  std::atomic<std::uint64_t> sends_{0}, send_bytes_{0};
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // guarded
};

class TracedProcess final : public ddemos::sim::ShardedProcess,
                            private ddemos::sim::Context {
 public:
  TracedProcess(std::unique_ptr<ddemos::sim::Process> inner, NodeKind kind,
                Tracer& tracer);

  ddemos::sim::Process& inner() { return *inner_; }

  std::size_t shard_count() const override;
  std::size_t shard_of(ddemos::sim::NodeId from,
                       const ddemos::net::Buffer& payload) const override;
  void on_start() override;
  void on_message(ddemos::sim::NodeId from,
                  const ddemos::net::Buffer& payload) override;
  void on_timer(std::uint64_t token) override;

 private:
  // sim::Context, forwarded to the backend's context for this node.
  void send(ddemos::sim::NodeId to, ddemos::net::Buffer payload) override;
  void send_self(ddemos::net::Buffer payload) override;
  std::uint64_t set_timer(ddemos::sim::Duration after) override;
  ddemos::sim::TimePoint now() const override;
  ddemos::sim::NodeId self() const override;
  void charge(ddemos::sim::Duration cpu) override;

  template <typename Fn>
  void timed(std::size_t shard, std::uint8_t type, std::int64_t wait_ns,
             Fn&& handler);

  std::unique_ptr<ddemos::sim::Process> inner_;
  ddemos::sim::ShardedProcess* sharded_ = nullptr;
  NodeKind kind_;
  Tracer& tracer_;
  ddemos::sim::NodeId id_ = 0;
  // One buffer per shard: a shard's handlers never run concurrently.
  std::vector<std::vector<Span>*> shard_spans_;
};

class TraceHost final : public ddemos::sim::RuntimeHost {
 public:
  TraceHost(ddemos::sim::RuntimeHost& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  ddemos::sim::NodeId add_node(std::unique_ptr<ddemos::sim::Process> proc,
                               std::string name) override;
  ddemos::sim::Process& process(ddemos::sim::NodeId id) override;
  const std::string& node_name(ddemos::sim::NodeId id) const override {
    return inner_.node_name(id);
  }
  std::size_t node_count() const override { return inner_.node_count(); }
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  ddemos::sim::TimePoint now() const override { return inner_.now(); }
  using ddemos::sim::RuntimeHost::run_to_quiescence;
  bool run_to_quiescence(const std::function<bool()>& done,
                         const ddemos::sim::RunOptions& options) override {
    return inner_.run_to_quiescence(done, options);
  }
  bool is_local(ddemos::sim::NodeId id) const override {
    return inner_.is_local(id);
  }
  std::vector<std::size_t> shard_queue_high_water(
      ddemos::sim::NodeId id) const override {
    return inner_.shard_queue_high_water(id);
  }
  std::uint64_t events_dispatched() const override {
    return inner_.events_dispatched();
  }

 private:
  ddemos::sim::RuntimeHost& inner_;
  Tracer& tracer_;
  std::unordered_map<ddemos::sim::NodeId, TracedProcess*> wrappers_;
};

// Counts and times ballot lookups of the wrapped store.
class TracedSource final : public ddemos::store::BallotDataSource {
 public:
  explicit TracedSource(std::shared_ptr<ddemos::store::BallotDataSource> inner)
      : inner_(std::move(inner)) {}

  std::optional<ddemos::core::VcBallotInit> find(
      ddemos::core::Serial serial) override;
  std::size_t size() const override { return inner_->size(); }
  ddemos::core::Serial serial_at(std::size_t idx) override {
    return inner_->serial_at(idx);
  }
  std::optional<std::size_t> index_of(ddemos::core::Serial serial) override {
    return inner_->index_of(serial);
  }
  std::uint64_t page_faults() const override { return inner_->page_faults(); }

  std::uint64_t finds() const { return finds_.load(); }
  std::int64_t find_cpu_ns() const { return find_cpu_ns_.load(); }

 private:
  std::shared_ptr<ddemos::store::BallotDataSource> inner_;
  std::atomic<std::uint64_t> finds_{0};
  std::atomic<std::int64_t> find_cpu_ns_{0};
};

}  // namespace perfbench
