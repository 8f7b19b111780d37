// The benchmark's load source: one client Process that casts votes at the
// VC nodes in phases the benchmark starts from its own thread:
//  * open loop  — casts due at a fixed rate, each timed from its due time
//                 (independent voters; a stall delays later casts too);
//  * closed loop — a fixed number of casts in flight, each receipt
//                 releasing the next (capacity);
//  * re-send    — already-cast votes sent again to one VC with a patience
//                 retry, to see a recovered node re-issue its receipts.
// Every reply is checked against the receipt printed on the ballot line
// that was cast.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "common.hpp"
#include "core/types.hpp"
#include "crypto/rng.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

using ddemos::sim::Duration;
using ddemos::sim::NodeId;
using ddemos::sim::TimePoint;

struct CastTarget {
  ddemos::core::Serial serial = 0;
  ddemos::Bytes code;
  std::uint64_t receipt = 0;  // printed on the ballot line being cast
  std::size_t option = 0;
};

enum class Phase : std::uint8_t { kOpen, kClosed, kResend };

struct Cast {
  std::size_t target = 0;  // index into the client's targets
  Phase phase = Phase::kOpen;
  TimePoint due_us = 0, sent_us = 0, reply_us = -1;
  std::uint8_t status = 0;  // core::VoteReplyStatus
  std::uint64_t receipt = 0;
  bool ok() const { return reply_us >= 0 && status == 0; }
};

// Casts attempted and how each one failed; all three failure kinds count
// against `attempted`.
struct CastTally {
  std::uint64_t attempted = 0, refused = 0, wrong = 0, timed_out = 0;
  std::uint64_t failed() const { return refused + wrong + timed_out; }
  // Counts one cast; true when it got the receipt printed on its line.
  bool count(const Cast& cast, const CastTarget& target);
  void add_to(Result& r) const;
};

class BenchClient final : public ddemos::sim::Process {
 public:
  BenchClient(std::vector<CastTarget> targets, std::vector<NodeId> vc_ids,
              std::uint64_t seed);

  // Phase commands, issued from the benchmark thread; each returns a
  // ticket that finished() reports once the phase has drained.
  std::uint64_t open_loop(double rate_per_s, double duration_s);
  // duration_s <= 0: cast every remaining target.
  std::uint64_t closed_loop(std::size_t in_flight, double duration_s);
  std::uint64_t resend(NodeId vc, std::size_t count, Duration patience_us);
  bool finished(std::uint64_t ticket) const {
    return finished_.load(std::memory_order_acquire) >= ticket;
  }
  // Casts still unanswered in the running phase (for a timed-out wait).
  std::size_t in_flight() const {
    return in_flight_count_.load(std::memory_order_acquire);
  }

  // Stable between phases (after finished()).
  const std::vector<CastTarget>& targets() const { return targets_; }
  const std::vector<Cast>& casts() const { return casts_; }
  TimePoint phase_start_us() const { return phase_start_us_; }
  // Last re-send phase: when its first correct re-issued receipt arrived.
  TimePoint first_resend_ok_us() const { return first_resend_ok_us_; }

  void on_start() override;
  void on_message(NodeId from, const ddemos::net::Buffer& payload) override;
  void on_timer(std::uint64_t token) override;

 private:
  struct Command {
    Phase phase = Phase::kOpen;
    double rate = 0, duration_s = 0;
    std::size_t count = 0;
    NodeId vc = 0;
    Duration patience_us = 0;
  };
  std::uint64_t post(const Command& cmd);
  void begin(const Command& cmd);
  void send(std::size_t cast_index, NodeId vc);
  void pump_open_loop();
  void maybe_finish();
  void arm_poll();

  std::vector<CastTarget> targets_;
  std::vector<NodeId> vc_ids_;
  ddemos::crypto::Rng rng_;

  // Command mailbox: written by the benchmark thread, read by the handler.
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> finished_{0};
  Command pending_;
  std::uint64_t running_ = 0;  // ticket of the running phase, 0 = idle

  // Handler-thread state.
  Command cmd_;
  std::vector<Cast> casts_;
  std::size_t next_target_ = 0;
  std::map<ddemos::core::Serial, std::size_t> in_flight_;  // -> cast index
  std::atomic<std::size_t> in_flight_count_{0};
  // Open loop: its casts are casts_[open_next_, open_end_), in due order.
  std::size_t open_next_ = 0, open_end_ = 0;
  TimePoint phase_start_us_ = 0;
  TimePoint first_resend_ok_us_ = -1;
  std::uint64_t poll_token_ = 0, phase_token_ = 0;
};

}  // namespace perfbench
