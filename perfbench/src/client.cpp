#include "client.hpp"

#include <algorithm>

#include "core/messages.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace ddemos;

namespace {
// How often an idle client looks for the next phase command.
constexpr Duration kPollUs = 2'000;
}  // namespace

bool CastTally::count(const Cast& cast, const CastTarget& target) {
  ++attempted;
  if (cast.reply_us < 0) {
    ++timed_out;
  } else if (cast.status != 0) {
    ++refused;
  } else if (cast.receipt != target.receipt) {
    ++wrong;
  } else {
    return true;
  }
  return false;
}

void CastTally::add_to(Result& r) const {
  r.attempted += attempted;
  r.failed += failed();
  r.note("casts.attempted", static_cast<double>(attempted));
  r.note("casts.refused", static_cast<double>(refused));
  r.note("casts.wrong", static_cast<double>(wrong));
  r.note("casts.timed_out", static_cast<double>(timed_out));
  r.check(failed() == 0, "casts failed: " + std::to_string(refused) +
                             " refused, " + std::to_string(wrong) +
                             " wrong, " + std::to_string(timed_out) +
                             " timed out");
}

BenchClient::BenchClient(std::vector<CastTarget> targets,
                         std::vector<NodeId> vc_ids, std::uint64_t seed)
    : targets_(std::move(targets)), vc_ids_(std::move(vc_ids)), rng_(seed) {}

std::uint64_t BenchClient::post(const Command& cmd) {
  pending_ = cmd;
  return posted_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::uint64_t BenchClient::open_loop(double rate_per_s, double duration_s) {
  Command c;
  c.phase = Phase::kOpen;
  c.rate = rate_per_s;
  c.duration_s = duration_s;
  return post(c);
}

std::uint64_t BenchClient::closed_loop(std::size_t in_flight,
                                       double duration_s) {
  Command c;
  c.phase = Phase::kClosed;
  c.count = in_flight;
  c.duration_s = duration_s;
  return post(c);
}

std::uint64_t BenchClient::resend(NodeId vc, std::size_t count,
                                  Duration patience_us) {
  Command c;
  c.phase = Phase::kResend;
  c.vc = vc;
  c.count = count;
  c.patience_us = patience_us;
  return post(c);
}

void BenchClient::on_start() { arm_poll(); }

void BenchClient::arm_poll() { poll_token_ = ctx().set_timer(kPollUs); }

void BenchClient::on_timer(std::uint64_t token) {
  if (token == poll_token_) {
    std::uint64_t posted = posted_.load(std::memory_order_acquire);
    if (running_ == 0 && posted > finished_.load(std::memory_order_relaxed)) {
      running_ = posted;
      begin(pending_);
    } else {
      arm_poll();
    }
    return;
  }
  if (token != phase_token_ || running_ == 0) return;
  if (cmd_.phase == Phase::kOpen) {
    pump_open_loop();
  } else if (cmd_.phase == Phase::kResend) {
    // Patience: a request sent while the node was still coming up may
    // never be answered, so everything unanswered goes out again.
    for (const auto& [serial, idx] : in_flight_) {
      const CastTarget& t = targets_[casts_[idx].target];
      ctx().send(cmd_.vc, core::VoteMsg{t.serial, t.code}.encode());
    }
    phase_token_ = ctx().set_timer(cmd_.patience_us);
  }
}

void BenchClient::begin(const Command& cmd) {
  cmd_ = cmd;
  phase_start_us_ = ctx().now();
  switch (cmd.phase) {
    case Phase::kOpen: {
      auto n = static_cast<std::size_t>(cmd.rate * cmd.duration_s);
      n = std::min(n, targets_.size() - next_target_);
      const double gap_us = 1e6 / cmd.rate;
      open_next_ = casts_.size();
      open_end_ = open_next_ + n;
      for (std::size_t i = 0; i < n; ++i) {
        Cast c;
        c.target = next_target_++;
        c.phase = Phase::kOpen;
        c.due_us = phase_start_us_ + static_cast<TimePoint>(i * gap_us);
        casts_.push_back(c);
      }
      pump_open_loop();
      break;
    }
    case Phase::kClosed:
      for (std::size_t i = 0; i < cmd.count && next_target_ < targets_.size();
           ++i) {
        Cast c;
        c.target = next_target_++;
        c.phase = Phase::kClosed;
        c.due_us = ctx().now();
        casts_.push_back(c);
        send(casts_.size() - 1, vc_ids_[rng_.below(vc_ids_.size())]);
      }
      break;
    case Phase::kResend: {
      first_resend_ok_us_ = -1;
      std::vector<std::size_t> done;
      for (std::size_t i = 0; i < casts_.size(); ++i) {
        if (casts_[i].phase != Phase::kResend && casts_[i].ok()) {
          done.push_back(i);
        }
      }
      const std::size_t n = std::min(cmd.count, done.size());
      for (std::size_t k = 0; k < n; ++k) {
        Cast c;
        c.target = casts_[done[k * done.size() / n]].target;
        c.phase = Phase::kResend;
        c.due_us = ctx().now();
        casts_.push_back(c);
        send(casts_.size() - 1, cmd.vc);
      }
      phase_token_ = ctx().set_timer(cmd.patience_us);
      break;
    }
  }
  maybe_finish();
}

void BenchClient::send(std::size_t idx, NodeId vc) {
  Cast& c = casts_[idx];
  const CastTarget& t = targets_[c.target];
  c.sent_us = ctx().now();
  in_flight_[t.serial] = idx;
  in_flight_count_.store(in_flight_.size(), std::memory_order_release);
  ctx().send(vc, core::VoteMsg{t.serial, t.code}.encode());
}

void BenchClient::pump_open_loop() {
  const TimePoint now = ctx().now();
  while (open_next_ < open_end_ && casts_[open_next_].due_us <= now) {
    send(open_next_++, vc_ids_[rng_.below(vc_ids_.size())]);
  }
  if (open_next_ < open_end_) {
    phase_token_ = ctx().set_timer(casts_[open_next_].due_us - now);
  }
  maybe_finish();
}

void BenchClient::on_message(NodeId, const net::Buffer& payload) {
  core::VoteReplyMsg m;
  try {
    Reader r(payload.view());
    if (static_cast<core::MsgType>(r.u8()) != core::MsgType::kVoteReply) {
      return;
    }
    m = core::VoteReplyMsg::decode(r);
  } catch (const CodecError&) {
    return;
  }
  auto it = in_flight_.find(m.serial);
  if (it == in_flight_.end()) return;  // a duplicate answer to a re-send
  Cast& c = casts_[it->second];
  in_flight_.erase(it);
  in_flight_count_.store(in_flight_.size(), std::memory_order_release);
  c.reply_us = ctx().now();
  c.status = static_cast<std::uint8_t>(m.status);
  c.receipt = m.receipt;
  if (c.phase == Phase::kResend && first_resend_ok_us_ < 0 && c.ok() &&
      c.receipt == targets_[c.target].receipt) {
    first_resend_ok_us_ = c.reply_us;
  }
  if (cmd_.phase == Phase::kClosed && next_target_ < targets_.size() &&
      (cmd_.duration_s <= 0 ||
       c.reply_us - phase_start_us_ < cmd_.duration_s * 1e6)) {
    Cast n;
    n.target = next_target_++;
    n.phase = Phase::kClosed;
    n.due_us = c.reply_us;
    casts_.push_back(n);
    send(casts_.size() - 1, vc_ids_[rng_.below(vc_ids_.size())]);
  }
  maybe_finish();
}

void BenchClient::maybe_finish() {
  if (running_ == 0 || !in_flight_.empty()) return;
  if (cmd_.phase == Phase::kOpen && open_next_ < open_end_) return;
  const std::uint64_t ticket = running_;
  running_ = 0;
  phase_token_ = 0;  // retire the phase's pending timer
  finished_.store(ticket, std::memory_order_release);
  arm_poll();
}

}  // namespace perfbench
