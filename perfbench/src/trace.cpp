#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace perfbench {

using namespace ddemos;

NodeKind kind_of(const std::string& name) {
  if (name.rfind("vc", 0) == 0) return NodeKind::kVc;
  if (name.rfind("bb", 0) == 0) return NodeKind::kBb;
  if (name.rfind("trustee", 0) == 0) return NodeKind::kTrustee;
  return NodeKind::kClient;
}

void Tracer::stamp(const void* payload, sim::NodeId to, std::size_t bytes) {
  sends_.fetch_add(1, std::memory_order_relaxed);
  send_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (!payload) return;
  const std::int64_t t = wall_ns();
  std::scoped_lock lk(stamps_mu_);
  stamps_[Key{payload, to}] = t;
}

std::int64_t Tracer::take_wait(const void* payload, sim::NodeId to,
                               std::int64_t now_ns) {
  if (!payload) return -1;
  std::scoped_lock lk(stamps_mu_);
  auto it = stamps_.find(Key{payload, to});
  if (it == stamps_.end()) return -1;
  const std::int64_t wait = now_ns - it->second;
  stamps_.erase(it);
  return wait;
}

std::vector<Span>* Tracer::buffer() {
  std::scoped_lock lk(buffers_mu_);
  buffers_.push_back(std::make_unique<std::vector<Span>>());
  buffers_.back()->reserve(4096);
  return buffers_.back().get();
}

std::vector<Span> Tracer::spans() const {
  std::scoped_lock lk(buffers_mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
  return out;
}

void Tracer::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "node,kind,type,start_ns,end_ns,cpu_ns,wait_ns\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%u,%u,%u,%lld,%lld,%lld,%lld\n", s.node,
                 static_cast<unsigned>(s.kind), static_cast<unsigned>(s.type),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_ns),
                 static_cast<long long>(s.wait_ns));
  }
  std::fclose(f);
}

TracedProcess::TracedProcess(std::unique_ptr<sim::Process> inner,
                             NodeKind kind, Tracer& tracer)
    : inner_(std::move(inner)),
      sharded_(dynamic_cast<sim::ShardedProcess*>(inner_.get())),
      kind_(kind),
      tracer_(tracer) {
  for (std::size_t i = 0; i < shard_count(); ++i) {
    shard_spans_.push_back(tracer_.buffer());
  }
}

std::size_t TracedProcess::shard_count() const {
  return sharded_ ? std::max<std::size_t>(sharded_->shard_count(), 1) : 1;
}

std::size_t TracedProcess::shard_of(sim::NodeId from,
                                    const net::Buffer& payload) const {
  return sharded_ ? sharded_->shard_of(from, payload) : 0;
}

template <typename Fn>
void TracedProcess::timed(std::size_t shard, std::uint8_t type,
                          std::int64_t wait_ns, Fn&& handler) {
  Span s;
  s.node = id_;
  s.kind = kind_;
  s.type = type;
  s.wait_ns = wait_ns;
  s.start_ns = wall_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  handler();
  s.cpu_ns = thread_cpu_ns() - cpu0;
  s.end_ns = wall_ns();
  // Same clamp as the backend's dispatch: out-of-range shards run on 0.
  shard_spans_[shard < shard_spans_.size() ? shard : 0]->push_back(s);
}

void TracedProcess::on_start() {
  id_ = ctx().self();
  inner_->bind(this);
  timed(0, kTimerSpan, -1, [&] { inner_->on_start(); });
}

void TracedProcess::on_message(sim::NodeId from, const net::Buffer& payload) {
  const std::int64_t wait = tracer_.take_wait(payload.data(), id_, wall_ns());
  const std::uint8_t type = payload.empty() ? kTimerSpan : payload[0];
  timed(shard_of(from, payload), type, wait,
        [&] { inner_->on_message(from, payload); });
}

void TracedProcess::on_timer(std::uint64_t token) {
  timed(0, kTimerSpan, -1, [&] { inner_->on_timer(token); });
}

void TracedProcess::send(sim::NodeId to, net::Buffer payload) {
  tracer_.stamp(payload.data(), to, payload.size());
  ctx().send(to, std::move(payload));
}

void TracedProcess::send_self(net::Buffer payload) {
  tracer_.stamp(payload.data(), id_, payload.size());
  ctx().send_self(std::move(payload));
}

std::uint64_t TracedProcess::set_timer(sim::Duration after) {
  return ctx().set_timer(after);
}

sim::TimePoint TracedProcess::now() const { return ctx().now(); }

sim::NodeId TracedProcess::self() const { return ctx().self(); }

void TracedProcess::charge(sim::Duration cpu) { ctx().charge(cpu); }

sim::NodeId TraceHost::add_node(std::unique_ptr<sim::Process> proc,
                                std::string name) {
  auto wrapper =
      std::make_unique<TracedProcess>(std::move(proc), kind_of(name), tracer_);
  TracedProcess* raw = wrapper.get();
  sim::NodeId id = inner_.add_node(std::move(wrapper), std::move(name));
  wrappers_[id] = raw;
  return id;
}

sim::Process& TraceHost::process(sim::NodeId id) {
  return wrappers_.at(id)->inner();
}

std::optional<core::VcBallotInit> TracedSource::find(core::Serial serial) {
  const std::int64_t cpu0 = thread_cpu_ns();
  auto out = inner_->find(serial);
  find_cpu_ns_.fetch_add(thread_cpu_ns() - cpu0, std::memory_order_relaxed);
  finds_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

}  // namespace perfbench
