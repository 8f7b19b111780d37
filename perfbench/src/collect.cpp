// Vote-collection workloads: `collect` (net::ThreadNet, one process) and
// `tcp-collect` (one ddemos_node process per VC over loopback TCP, WAL on,
// then a VC crash and respawn). Both cast against 4 VCs (fv = 1) holding
// VC-only EA data over a 100,000-ballot universe, from one client: an open
// loop at a fixed rate, then a closed loop with a fixed number in flight.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <numeric>
#include <thread>

#include "client.hpp"
#include "core/tcp_launcher.hpp"
#include "ea/ea.hpp"
#include "net/thread_net.hpp"
#include "trace.hpp"
#include "vc/vc_node.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ddemos;
namespace fs = std::filesystem;

namespace {

// The universe is far larger than the casts of a run, so the ballots a run
// touches are spread over memory the way a real electorate's are.
constexpr std::size_t kUniverse = 100'000;
constexpr std::size_t kOptions = 2;
// About a quarter of today's capacity: a regression shows as latency
// before it shows as backlog.
constexpr double kOpenRate = 100;
constexpr std::size_t kInFlight = 64;
// Share of the closed loop excluded as warm-up; the drain after the last
// issued cast is excluded too.
constexpr double kWarmupShare = 0.2;
// Unmeasured closed loop that warms a fresh cluster before the open loop.
constexpr double kWarmupS = 1.0;
// Setups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
// Closed-loop target budget: room for several times today's capacity.
constexpr double kMaxCastsPerS = 4000;
// Already-cast votes re-sent to the respawned VC.
constexpr std::size_t kResends = 64;
constexpr Duration kResendPatienceUs = 250'000;

struct Plan {
  double open_s = 0, closed_s = 0;
  std::size_t targets = 0;
};

Plan plan_for(const RunArgs& a) {
  Plan p;
  // The closed loop feeds the bounded metrics and gets the whole span;
  // the open loop's latencies are only noted.
  p.open_s = 0.2 * a.seconds;
  p.closed_s = a.seconds;
  p.targets = static_cast<std::size_t>(kOpenRate * p.open_s +
                                       kMaxCastsPerS * p.closed_s) +
              kInFlight;
  return p;
}

core::ElectionParams collect_params() {
  core::ElectionParams p;
  p.election_id = to_bytes("perfbench-collect");
  for (std::size_t i = 0; i < kOptions; ++i) {
    p.options.push_back("opt" + std::to_string(i));
  }
  p.n_voters = kUniverse;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 1;
  p.f_bb = 0;
  p.n_trustees = 1;
  p.h_trustees = 1;
  p.t_start = 0;
  // Polls never close: these workloads measure vote collection only.
  p.t_end = std::numeric_limits<std::int64_t>::max() / 4;
  return p;
}

struct Generated {
  ea::SetupArtifacts arts;
  std::vector<CastTarget> targets;
  std::vector<std::vector<core::VcBallotInit>> slices;  // per VC, if kept
};

// Streaming VC-only EA setup over the universe. The cast targets are
// seeded-random ballots (and parts and options) from the whole universe,
// in random order.
Generated generate(const core::ElectionParams& params, std::uint64_t seed,
                   std::size_t n_targets, bool keep_slices) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  crypto::Rng pick(seed ^ 0x70657266ull);
  std::vector<std::size_t> slots(params.n_voters);
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  n_targets = std::min(n_targets, slots.size());
  std::vector<std::size_t> order_of(slots.size(), kNone);
  std::vector<std::pair<std::size_t, std::size_t>> line_of(n_targets);
  for (std::size_t k = 0; k < n_targets; ++k) {
    std::swap(slots[k], slots[k + pick.below(slots.size() - k)]);
    order_of[slots[k]] = k;
    line_of[k] = {pick.below(core::kNumParts), pick.below(params.m())};
  }

  Generated g;
  g.targets.resize(n_targets);
  g.slices.resize(keep_slices ? params.n_vc : 0);
  for (auto& s : g.slices) s.reserve(params.n_voters);
  std::size_t slot = 0;
  g.arts = ea::ea_setup_streaming(
      ea::EaConfig{params, seed, /*vc_only=*/true, 64},
      [&](const core::Ballot& ballot, std::span<core::VcBallotInit> per_vc) {
        const std::size_t k = order_of[slot++];
        if (k != kNone) {
          const auto [part, option] = line_of[k];
          const core::BallotLine& line = ballot.parts[part].lines[option];
          g.targets[k] =
              CastTarget{ballot.serial, line.vote_code, line.receipt, option};
        }
        for (std::size_t i = 0; i < g.slices.size(); ++i) {
          g.slices[i].push_back(std::move(per_vc[i]));
        }
      });
  return g;
}

bool wait_phase(sim::RuntimeHost& host, const BenchClient& client,
                std::uint64_t ticket, double budget_s) {
  sim::RunOptions o;
  o.wall_timeout_us = static_cast<Duration>(budget_s * 1e6);
  return host.run_to_quiescence([&] { return client.finished(ticket); }, o);
}

// Bounds of the load phases: host clock, wall clock, and cast indices.
struct LoopRun {
  TimePoint closed_start_us = 0;
  std::int64_t open_ns[2] = {0, 0}, closed_ns[2] = {0, 0};
  std::size_t first_open = 0, first_closed = 0, end = 0;  // cast indices
  double cpu_s = 0;  // CPU of every node-hosting process, closed loop only
};

void run_phase(sim::RuntimeHost& host, BenchClient& client,
               std::uint64_t ticket, double seconds, const char* what) {
  if (!wait_phase(host, client, ticket, seconds + 60)) {
    throw std::runtime_error(std::string(what) + " timed out with " +
                             std::to_string(client.in_flight()) +
                             " casts unanswered");
  }
}

// Warm-up, the open loop, then the closed loop. `cpu_now` reads the
// summed CPU seconds of the processes hosting nodes.
template <typename CpuFn>
LoopRun run_loops(sim::RuntimeHost& host, BenchClient& client,
                  const Plan& plan, CpuFn&& cpu_now) {
  LoopRun run;
  // A fresh cluster answers its first few hundred casts slowly (the
  // open loop's first second ran tens of ms behind); users of a running
  // election do not see that, so it is not measured.
  run_phase(host, client, client.closed_loop(kInFlight, kWarmupS), kWarmupS,
            "warm-up");
  run.first_open = client.casts().size();
  run.open_ns[0] = wall_ns();
  run_phase(host, client, client.open_loop(kOpenRate, plan.open_s),
            plan.open_s, "open loop");
  run.open_ns[1] = wall_ns();
  run.first_closed = client.casts().size();
  const double cpu0 = cpu_now();
  run.closed_ns[0] = wall_ns();
  run_phase(host, client, client.closed_loop(kInFlight, plan.closed_s),
            plan.closed_s, "closed loop");
  run.closed_ns[1] = wall_ns();
  run.cpu_s = cpu_now() - cpu0;
  run.closed_start_us = client.phase_start_us();
  run.end = client.casts().size();
  if (run.end == client.targets().size()) {
    throw std::runtime_error("closed loop ran out of cast targets");
  }
  return run;
}

struct LoopScore {
  std::vector<double> open_latency_ms, open_late_ms;
  double casts_per_s = 0;
  std::size_t closed_receipts = 0, receipts = 0;
};

// Checks every answered cast against the printed receipt and scores the
// two load phases.
LoopScore score_loops(const BenchClient& client, const Plan& plan,
                      const LoopRun& run, CastTally& tally) {
  LoopScore s;
  const auto span_us = static_cast<TimePoint>(plan.closed_s * 1e6);
  const TimePoint window0 =
      run.closed_start_us + static_cast<TimePoint>(kWarmupShare * span_us);
  const TimePoint window1 = run.closed_start_us + span_us;
  std::size_t in_window = 0;
  const std::vector<Cast>& casts = client.casts();
  for (std::size_t i = 0; i < run.end; ++i) {
    const Cast& c = casts[i];
    if (!tally.count(c, client.targets()[c.target])) continue;
    ++s.receipts;
    if (i < run.first_open) continue;  // warm-up
    if (i < run.first_closed) {
      s.open_latency_ms.push_back(
          static_cast<double>(c.reply_us - c.due_us) / 1e3);
      s.open_late_ms.push_back(static_cast<double>(c.sent_us - c.due_us) / 1e3);
    } else {
      ++s.closed_receipts;
      if (c.reply_us >= window0 && c.reply_us < window1) ++in_window;
    }
  }
  s.casts_per_s = static_cast<double>(in_window) /
                  (static_cast<double>(window1 - window0) / 1e6);
  return s;
}

// Open-loop figures, in the notes of every run. Latency is reported, not
// bounded: at this load the VC threads sleep between casts, and how fast a
// VM wakes them tracks the host's steal time (on a 4-core Xeon VM the p50
// read 3.3 ms at 1% steal and 9.4 ms at 9%).
void note_loops(const LoopScore& s, Result& out) {
  out.check(s.open_latency_ms.size() >= 10, "too few open-loop receipts");
  double late = 0;
  for (double l : s.open_late_ms) late += l;
  out.note("client.receipt_p50_ms", percentile(s.open_latency_ms, 0.5));
  out.note("client.receipt_p99_ms", percentile(s.open_latency_ms, 0.99));
  out.note("client.receipt_samples",
           static_cast<double>(s.open_latency_ms.size()));
  out.note("client.generator_late_ms", per(late, s.open_late_ms.size()));
  out.note("closed_receipts", static_cast<double>(s.closed_receipts));
}

// --- in-process cluster -----------------------------------------------------

struct Cluster {
  std::unique_ptr<Tracer> tracer;  // outlives the net's traced processes
  std::unique_ptr<net::ThreadNet> net;
  std::unique_ptr<TraceHost> traced;
  sim::RuntimeHost* host = nullptr;
  std::vector<sim::NodeId> vc_ids;
  std::vector<vc::VcNode*> vcs;
  std::vector<std::shared_ptr<TracedSource>> sources;
  BenchClient* client = nullptr;
  double ea_s = 0, build_s = 0;
};

std::unique_ptr<Cluster> build_cluster(const core::ElectionParams& params,
                                       std::uint64_t seed, const Plan& plan,
                                       bool traced) {
  auto c = std::make_unique<Cluster>();
  const double t0 = wall_s();
  Generated g = generate(params, seed, plan.targets, /*keep_slices=*/true);
  const double t1 = wall_s();
  c->net = std::make_unique<net::ThreadNet>();
  c->host = c->net.get();
  if (traced) {
    c->tracer = std::make_unique<Tracer>();
    c->traced = std::make_unique<TraceHost>(*c->net, *c->tracer);
    c->host = c->traced.get();
  }
  for (std::size_t i = 0; i < params.n_vc; ++i) {
    c->vc_ids.push_back(static_cast<sim::NodeId>(i));
  }
  for (std::size_t i = 0; i < params.n_vc; ++i) {
    std::shared_ptr<store::BallotDataSource> source =
        std::make_shared<store::MemoryBallotSource>(std::move(g.slices[i]));
    if (traced) {
      c->sources.push_back(std::make_shared<TracedSource>(source));
      source = c->sources.back();
    }
    sim::NodeId id = c->host->add_node(
        std::make_unique<vc::VcNode>(g.arts.vc_inits[i], source, c->vc_ids,
                                     std::vector<sim::NodeId>{}),
        "vc" + std::to_string(i));
    c->vcs.push_back(&dynamic_cast<vc::VcNode&>(c->host->process(id)));
  }
  sim::NodeId id = c->host->add_node(
      std::make_unique<BenchClient>(std::move(g.targets), c->vc_ids, seed ^ 1),
      "client");
  c->client = &dynamic_cast<BenchClient&>(c->host->process(id));
  c->host->start();
  c->ea_s = t1 - t0;
  c->build_s = wall_s() - t1;
  return c;
}

double mean_cpu_us(const std::vector<Span>& spans, NodeKind kind,
                   core::MsgType type) {
  double sum = 0;
  std::size_t n = 0;
  for (const Span& s : spans) {
    if (s.kind == kind && s.type == static_cast<std::uint8_t>(type)) {
      sum += static_cast<double>(s.cpu_ns);
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) / 1e3 : 0;
}

Layers collect_per_layer(const Cluster& c, const LoopRun& run,
                         const LoopScore& score, Result& out) {
  const std::vector<Span> spans = c.tracer->spans();
  const std::pair<const char*, core::MsgType> handlers[] = {
      {"vc.vote_us", core::MsgType::kVote},
      {"vc.endorse_us", core::MsgType::kEndorse},
      {"vc.endorsement_us", core::MsgType::kEndorsement},
      {"vc.vote_p_us", core::MsgType::kVoteP},
  };
  for (const auto& [name, type] : handlers) {
    out.note(name, mean_cpu_us(spans, NodeKind::kVc, type));
  }

  double closed_vc_cpu = 0;
  std::vector<double> waits;
  for (const Span& s : spans) {
    if (s.kind == NodeKind::kVc && s.start_ns >= run.closed_ns[0] &&
        s.start_ns < run.closed_ns[1]) {
      closed_vc_cpu += static_cast<double>(s.cpu_ns);
    }
    if (s.wait_ns >= 0 && s.start_ns >= run.open_ns[0] &&
        s.start_ns < run.open_ns[1]) {
      waits.push_back(static_cast<double>(s.wait_ns) / 1e3);
    }
  }
  std::uint64_t handled = 0;
  std::size_t high_water = 0;
  for (std::size_t i = 0; i < c.vcs.size(); ++i) {
    for (const vc::VcShardStats& s : c.vcs[i]->shard_stats()) {
      handled += s.handled_messages;
    }
    for (std::size_t hw : c.host->shard_queue_high_water(c.vc_ids[i])) {
      high_water = std::max(high_water, hw);
    }
  }
  const std::size_t receipts = score.receipts;
  out.note("net.queue_wait_p50_us", percentile(waits, 0.5));
  out.note("net.queue_wait_p99_us", percentile(waits, 0.99));
  out.note("net.bytes_per_cast", per(c.tracer->send_bytes(), receipts));
  std::uint64_t finds = 0;
  std::int64_t find_ns = 0;
  for (const auto& s : c.sources) {
    finds += s->finds();
    find_ns += s->find_cpu_ns();
  }
  out.note("store.finds_per_cast", per(finds, receipts));
  out.note("store.find_us", per(find_ns / 1e3, finds));

  Layers m;
  m.vc_cpu_ms_per_cast = per(closed_vc_cpu / 1e6, score.closed_receipts);
  m.vc_msgs_per_cast = per(handled, receipts);
  m.net_msgs_per_cast = per(c.tracer->sends(), receipts);
  m.net_queue_high_water = static_cast<double>(high_water);
  return m;
}

// --- multi-process cluster --------------------------------------------------

struct TcpCluster {
  std::unique_ptr<core::TcpLauncher> launcher;
  std::vector<sim::NodeId> vc_ids;
  BenchClient* client = nullptr;
  double ea_s = 0, build_s = 0;
};

std::unique_ptr<TcpCluster> build_tcp_cluster(
    const core::ElectionParams& params, std::uint64_t seed, const Plan& plan,
    const std::string& wal_dir) {
  auto c = std::make_unique<TcpCluster>();
  const double t0 = wall_s();
  // The node processes rebuild their own slices from (params, seed); the
  // launcher only needs the printed ballots it casts.
  Generated g = generate(params, seed, plan.targets, /*keep_slices=*/false);
  const double t1 = wall_s();
  fs::remove_all(wal_dir);  // a leftover log would replay into the cluster
  fs::create_directories(wal_dir);
  core::TcpClusterSpec spec;
  spec.params = params;
  spec.seed = seed;
  spec.vc_only = true;
  spec.collection_only = true;
  spec.durability.wal_dir = wal_dir;  // default kInterval fsync policy
  c->launcher = std::make_unique<core::TcpLauncher>(std::move(spec));
  c->launcher->launch();
  net::TcpNet& net = c->launcher->net();
  for (std::size_t i = 0; i < params.n_vc; ++i) {
    c->vc_ids.push_back(net.add_remote("vc" + std::to_string(i)));
  }
  sim::NodeId id = net.add_node(
      std::make_unique<BenchClient>(std::move(g.targets), c->vc_ids, seed ^ 1),
      "client");
  c->client = &dynamic_cast<BenchClient&>(net.process(id));
  c->launcher->go();
  c->ea_s = t1 - t0;
  c->build_s = wall_s() - t1;
  return c;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace

void run_collect(const RunArgs& args, Result& out) {
  const Plan plan = plan_for(args);
  const core::ElectionParams params = collect_params();
  std::vector<double> setup_s, ea_s, build_s;
  std::unique_ptr<Cluster> c;
  CastTally tally;
  double untraced_cps = 0;
  for (std::size_t k = 0; k < kSetups; ++k) {
    c.reset();  // one cluster in memory at a time
    const bool last = k + 1 == kSetups;
    c = build_cluster(params, args.seed, plan, args.trace && last);
    setup_s.push_back(c->ea_s + c->build_s);
    ea_s.push_back(c->ea_s);
    build_s.push_back(c->build_s);
    if (args.trace && k == 0) {
      // The same load untraced, for the tracing overhead; its client.*
      // figures are the ones noted.
      LoopRun run = run_loops(*c->host, *c->client, plan, process_cpu_s);
      c->host->stop();
      LoopScore score = score_loops(*c->client, plan, run, tally);
      note_loops(score, out);
      untraced_cps = score.casts_per_s;
    }
  }
  LoopRun run = run_loops(*c->host, *c->client, plan, process_cpu_s);
  c->host->stop();
  LoopScore score = score_loops(*c->client, plan, run, tally);
  tally.add_to(out);
  if (!args.trace) {
    note_loops(score, out);
    report(EndToEnd{median(setup_s), score.casts_per_s,
                    per(run.cpu_s * 1e3, score.closed_receipts),
                    per(self_peak_rss_kb(), 1024)},
           out);
    return;
  }
  Layers m = collect_per_layer(*c, run, score, out);
  m.ea_setup_s = median(ea_s);
  m.core_build_s = median(build_s);
  out.note("trace.overhead", untraced_cps / score.casts_per_s - 1);
  c->tracer->dump(args.out_dir + "/spans-collect-" +
                  std::to_string(args.seed) + ".csv");
  c.reset();
  report(m, out);
}

void run_tcp_collect(const RunArgs& args, Result& out) {
  const Plan plan = plan_for(args);
  const core::ElectionParams params = collect_params();
  const std::string wal_dir = args.out_dir + "/wal";
  std::vector<double> setup_s, ea_s, build_s;
  std::unique_ptr<TcpCluster> c;
  for (std::size_t k = 0; k < kSetups; ++k) {
    if (c) c->launcher->stop_cluster();
    c.reset();
    c = build_tcp_cluster(params, args.seed, plan, wal_dir);
    setup_s.push_back(c->ea_s + c->build_s);
    ea_s.push_back(c->ea_s);
    build_s.push_back(c->build_s);
  }
  core::TcpLauncher& launcher = *c->launcher;
  net::TcpNet& net = launcher.net();
  const std::vector<pid_t> nodes = child_pids("ddemos_node");
  out.check(nodes.size() == params.n_vc, "expected one node process per VC");
  // Phase-boundary CPU of the node processes, read from /proc: they
  // rebuilt their EA slices at launch, which must not count against the
  // casts. One (node, launcher) mark per boundary.
  std::vector<std::pair<double, double>> cpu_marks;
  LoopRun run = run_loops(net, *c->client, plan, [&] {
    double node = 0;
    for (pid_t p : nodes) node += proc_cpu_s(p);
    cpu_marks.emplace_back(node, process_cpu_s());
    return node + cpu_marks.back().second;
  });
  const double node_cpu_closed = cpu_marks[1].first - cpu_marks[0].first;
  const double launcher_cpu_closed = cpu_marks[1].second - cpu_marks[0].second;
  CastTally tally;
  LoopScore score = score_loops(*c->client, plan, run, tally);
  const double wal_bytes = static_cast<double>(dir_bytes(wal_dir));

  // Crash VC 3 and bring it back; it must re-issue, from its write-ahead
  // log, the receipts it issued before the crash.
  const std::size_t crashed_vc = params.n_vc - 1;
  const std::uint32_t crashed = crashed_vc + 1;  // process p hosts node p-1
  launcher.kill_process(crashed);
  const double dead_by = wall_s() + 30;
  while (launcher.process_alive(crashed) && wall_s() < dead_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const TimePoint respawn_at = net.now();
  launcher.respawn_process(crashed);
  const std::size_t first = c->client->casts().size();
  run_phase(net, *c->client,
            c->client->resend(c->vc_ids[crashed_vc], kResends,
                              kResendPatienceUs),
            0, "re-send after respawn");
  const std::vector<Cast>& casts = c->client->casts();
  const std::vector<CastTarget>& targets = c->client->targets();
  out.check(casts.size() - first == kResends, "fewer re-sends than planned");
  for (std::size_t i = first; i < casts.size(); ++i) {
    tally.count(casts[i], targets[casts[i].target]);
  }
  const TimePoint first_ok = c->client->first_resend_ok_us();
  out.check(first_ok >= 0, "no re-issued receipt");

  const std::vector<core::TcpProcessReport> reports = launcher.stop_cluster();
  tally.add_to(out);
  out.check(reports.size() == params.n_vc, "missing node process reports");
  std::uint64_t peak_kb = self_peak_rss_kb(), frames = 0, dropped = 0,
                reconnects = 0, handled = 0;
  std::size_t handled_vcs = 0, high_water = 0;
  for (const core::TcpProcessReport& r : reports) {
    peak_kb += r.peak_rss_kb;
    dropped += r.frames_dropped;
    reconnects += r.reconnects;
    if (r.process == crashed) continue;  // its counters restarted too
    frames += r.frames_sent;
    for (const core::TcpNodeReport& n : r.nodes) {
      for (const vc::VcShardStats& s : n.vc_shard_stats) {
        handled += s.handled_messages;
        high_water = std::max<std::size_t>(high_water, s.queue_high_water);
      }
      ++handled_vcs;
    }
  }
  fs::remove_all(wal_dir);
  const std::size_t receipts = score.receipts, closed = score.closed_receipts;
  note_loops(score, out);
  out.note("recovery_s", static_cast<double>(first_ok - respawn_at) / 1e6);
  if (!args.trace) {
    report(EndToEnd{median(setup_s), score.casts_per_s,
                    per(run.cpu_s * 1e3, closed), per(peak_kb, 1024)},
           out);
    return;
  }
  out.note("tcp.frames_dropped", static_cast<double>(dropped));
  out.note("tcp.reconnects", static_cast<double>(reconnects));
  out.note("tcp.launcher_cpu_ms_per_cast",
           per(launcher_cpu_closed * 1e3, closed));
  out.note("wal.bytes_per_cast", per(wal_bytes, receipts));
  Layers m;
  m.ea_setup_s = median(ea_s);
  m.core_build_s = median(build_s);
  // The VC processes' whole CPU, sockets and writer threads included.
  m.vc_cpu_ms_per_cast = per(node_cpu_closed * 1e3, closed);
  // Per VC from those never restarted, scaled to all of them.
  m.vc_msgs_per_cast = per(per(handled, handled_vcs) * params.n_vc, receipts);
  m.net_msgs_per_cast = per(per(frames, handled_vcs) * params.n_vc, receipts);
  m.net_queue_high_water = static_cast<double>(high_water);
  c.reset();
  report(m, out);
}

}  // namespace perfbench
