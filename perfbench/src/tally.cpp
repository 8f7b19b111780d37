// `tally`: full elections on net::ThreadNet — 4 VCs, 3 BBs (fb = 1),
// 3 trustees (ht = 2), 4 options, 75% turnout cast by a closed loop — run
// through polls closing, vote-set consensus, the push to the BBs, trustee
// shares, BB verification and the result, then audited with
// client::Auditor. The full EA, consensus, BBs, trustees and the
// Pedersen/ZK/MSM crypto dominate; the receipt path is a small share.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "client.hpp"
#include "client/auditor.hpp"
#include "core/driver.hpp"
#include "net/thread_net.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ddemos;

namespace {

// Ballots per election. The full EA costs ~0.13 s per ballot at m = 4, so
// the electorate is what keeps several elections inside one run.
constexpr std::size_t kBallots = 40;
constexpr std::size_t kOptions = 4;
// The unused quarter exercises the trustee path that opens both parts.
constexpr double kTurnout = 0.75;
constexpr std::size_t kInFlight = 64;
// Polls close this long after start; every cast is answered well before.
constexpr Duration kPollsCloseUs = 1'500'000;
// Trustees poll the BBs this often (the default 200 ms quantizes result_s).
constexpr Duration kTrusteePollUs = 10'000;
// Each election's audit repeats until this much time has been measured.
constexpr double kAuditMinS = 1.0;
constexpr std::size_t kAuditMinReps = 3;

core::ElectionParams tally_params() {
  core::ElectionParams p;
  p.election_id = to_bytes("perfbench-tally");
  for (std::size_t i = 0; i < kOptions; ++i) {
    p.options.push_back("opt" + std::to_string(i));
  }
  p.n_voters = kBallots;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 3;
  p.f_bb = 1;
  p.n_trustees = 3;
  p.h_trustees = 2;
  p.t_start = 0;
  p.t_end = kPollsCloseUs;
  return p;
}

struct Election {
  std::unique_ptr<Tracer> tracer;  // outlives the net's traced processes
  std::unique_ptr<net::ThreadNet> net;
  std::unique_ptr<TraceHost> traced;
  sim::RuntimeHost* host = nullptr;
  std::unique_ptr<core::ElectionDriver> driver;
  std::vector<std::shared_ptr<TracedSource>> sources;
  BenchClient* client = nullptr;
  std::uint64_t ticket = 0;
  double ea_s = 0, build_s = 0;
  double cpu0_s = 0;  // process CPU when the nodes started
};

std::unique_ptr<Election> build_election(const core::ElectionParams& params,
                                         std::uint64_t seed, bool traced) {
  auto e = std::make_unique<Election>();
  const double t0 = wall_s();
  auto arts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup(ea::EaConfig{params, seed, /*vc_only=*/false, 64}));
  const double t1 = wall_s();

  // Seeded turnout: which ballots are cast, and on which part and option.
  crypto::Rng pick(seed ^ 0x74616c6cull);
  std::vector<std::size_t> slots(params.n_voters);
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  const auto cast = static_cast<std::size_t>(kTurnout * params.n_voters);
  std::vector<CastTarget> targets;
  for (std::size_t k = 0; k < cast; ++k) {
    std::swap(slots[k], slots[k + pick.below(slots.size() - k)]);
    const core::Ballot& ballot = arts->voter_ballots[slots[k]];
    const std::size_t option = pick.below(params.m());
    const core::BallotLine& line =
        ballot.parts[pick.below(core::kNumParts)].lines[option];
    targets.push_back({ballot.serial, line.vote_code, line.receipt, option});
  }

  e->net = std::make_unique<net::ThreadNet>();
  e->host = e->net.get();
  core::DriverConfig cfg;
  cfg.params = params;
  cfg.seed = seed;
  cfg.artifacts = arts;
  // The driver casts nothing itself; the benchmark's client does.
  cfg.workload = core::VoteListWorkload::make(
      std::vector<std::size_t>(params.n_voters, core::kAbstain));
  cfg.trustee_options.poll_interval_us = kTrusteePollUs;
  if (traced) {
    e->tracer = std::make_unique<Tracer>();
    e->traced = std::make_unique<TraceHost>(*e->net, *e->tracer);
    e->host = e->traced.get();
    cfg.store_factory = [&sources = e->sources](const core::VcInit& init) {
      sources.push_back(std::make_shared<TracedSource>(
          std::make_shared<store::MemoryBallotSource>(init.ballots)));
      return sources.back();
    };
  }
  e->driver = std::make_unique<core::ElectionDriver>(*e->host, cfg);
  sim::NodeId id = e->host->add_node(
      std::make_unique<BenchClient>(std::move(targets),
                                    e->driver->topology().vc_ids, seed ^ 1),
      "client");
  e->client = &dynamic_cast<BenchClient&>(e->host->process(id));
  e->ticket = e->client->closed_loop(kInFlight, 0);  // every target
  e->cpu0_s = process_cpu_s();
  e->host->start();
  e->ea_s = t1 - t0;
  e->build_s = wall_s() - t1;
  return e;
}

double cpu_s_of(const std::vector<Span>& spans, NodeKind kind) {
  double ns = 0;
  for (const Span& s : spans) {
    if (s.kind == kind) ns += static_cast<double>(s.cpu_ns);
  }
  return ns / 1e9;
}

}  // namespace

void run_tally(const RunArgs& args, Result& out) {
  const core::ElectionParams params = tally_params();
  // One election per 5 s of --seconds; each takes about 10 s of wall time.
  const std::size_t elections =
      std::max<std::size_t>(2, std::lround(args.seconds / 5));
  const std::size_t threads =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::vector<double> setup_s, ea_s, build_s, result_s, majority_s, audit_rates,
      audit_rates_1, verified_per_s, cpu_ms_per_ballot, consensus_s, push_s,
      publish_s, bb_cpu, trustee_cpu;
  double trustee_ballot_ns = 0, trustee_ballots = 0, find_ns = 0, finds = 0,
         casts = 0, vc_cpu_ns = 0, vc_handled = 0, sends = 0, send_bytes = 0,
         high_water = 0;
  CastTally tally;
  for (std::size_t k = 0; k < elections; ++k) {
    std::unique_ptr<Election> e =
        build_election(params, args.seed * 1000 + k, args.trace);
    setup_s.push_back(e->ea_s + e->build_s);
    ea_s.push_back(e->ea_s);
    build_s.push_back(e->build_s);
    const core::ElectionReport report = e->driver->run();
    // run() has stopped the host: no node runs during the audits below.
    const double election_cpu_s = process_cpu_s() - e->cpu0_s;
    const core::PhaseBreakdown& ph = report.phases;

    // Receipts against the printed ballots, and the ground-truth tally.
    const BenchClient& client = *e->client;
    out.check(client.finished(e->ticket), "casts still open at polls close");
    std::vector<std::uint64_t> truth(params.m(), 0);
    for (const Cast& c : client.casts()) {
      const CastTarget& target = client.targets()[c.target];
      if (tally.count(c, target)) {
        ++truth[target.option];
        ++casts;
      }
    }
    out.check(report.completed, "election did not complete");
    out.check(report.tally == truth, "published tally differs from truth");
    for (std::size_t i = 0; i < params.n_bb; ++i) {
      const auto& result = e->driver->bb_node(i).result();
      out.check(result && result->tally == truth,
                "BB " + std::to_string(i) + " tally differs from truth");
    }
    result_s.push_back(
        static_cast<double>(ph.result_published_at - params.t_end) / 1e6);
    // A voter's majority reader has the result once fb + 1 BBs publish it.
    std::vector<TimePoint> published;
    for (std::size_t i = 0; i < params.n_bb; ++i) {
      published.push_back(e->driver->bb_node(i).result_published_at());
    }
    std::sort(published.begin(), published.end());
    majority_s.push_back(
        static_cast<double>(published[params.f_bb] - params.t_end) / 1e6);

    // Wall and CPU seconds of each audit.
    client::Auditor auditor(e->driver->reader());
    auto audit = [&](std::size_t n_threads, std::size_t min_reps,
                     std::vector<double>& wall, std::vector<double>* cpu) {
      const double until = wall_s() + kAuditMinS;
      for (std::size_t rep = 0; rep < min_reps || wall_s() < until; ++rep) {
        const double t0 = wall_s(), c0 = process_cpu_s();
        const client::AuditReport a = auditor.verify_election({n_threads});
        wall.push_back(wall_s() - t0);
        if (cpu) cpu->push_back(process_cpu_s() - c0);
        out.check(a.passed, "audit failed");
        out.check(a.tally == truth, "audit tally differs from truth");
      }
    };
    std::vector<double> audit_wall, audit_cpu;
    audit(threads, kAuditMinReps, audit_wall, &audit_cpu);
    const double ballots = static_cast<double>(params.n_voters);
    for (double w : audit_wall) audit_rates.push_back(ballots / w);
    // One op: a ballot from polls closing to a result a voter can read and
    // has audited.
    verified_per_s.push_back(ballots /
                             (majority_s.back() + median(audit_wall)));
    cpu_ms_per_ballot.push_back(
        (election_cpu_s + median(audit_cpu)) * 1e3 / ballots);
    if (!args.trace) continue;

    std::vector<double> audit_wall_1;
    audit(1, audit_wall.size(), audit_wall_1, nullptr);
    for (double w : audit_wall_1) audit_rates_1.push_back(ballots / w);
    consensus_s.push_back(ph.consensus_s());
    push_s.push_back(ph.push_tally_s());
    publish_s.push_back(ph.publish_s());
    const std::vector<Span> spans = e->tracer->spans();
    bb_cpu.push_back(cpu_s_of(spans, NodeKind::kBb));
    trustee_cpu.push_back(cpu_s_of(spans, NodeKind::kTrustee));
    vc_cpu_ns += cpu_s_of(spans, NodeKind::kVc) * 1e9;
    for (const Span& s : spans) {
      if (s.kind == NodeKind::kBb &&
          s.type == static_cast<std::uint8_t>(core::MsgType::kTrusteeBallot)) {
        trustee_ballot_ns += static_cast<double>(s.cpu_ns);
        ++trustee_ballots;
      }
    }
    const std::vector<sim::NodeId>& vc_ids = e->driver->topology().vc_ids;
    for (std::size_t i = 0; i < vc_ids.size(); ++i) {
      for (const vc::VcShardStats& s : e->driver->vc_node(i).shard_stats()) {
        vc_handled += static_cast<double>(s.handled_messages);
      }
      for (std::size_t hw : e->host->shard_queue_high_water(vc_ids[i])) {
        high_water = std::max(high_water, static_cast<double>(hw));
      }
    }
    sends += static_cast<double>(e->tracer->sends());
    send_bytes += static_cast<double>(e->tracer->send_bytes());
    for (const auto& s : e->sources) {
      finds += static_cast<double>(s->finds());
      find_ns += static_cast<double>(s->find_cpu_ns());
    }
    e->tracer->dump(args.out_dir + "/spans-tally-" + std::to_string(args.seed) +
                    "-" + std::to_string(k) + ".csv");
  }
  tally.add_to(out);
  out.note("elections", static_cast<double>(elections));
  out.note("audit_threads", static_cast<double>(threads));
  out.note("audit_samples", static_cast<double>(audit_rates.size()));
  out.note("result_s", median(result_s));
  out.note("result_majority_s", median(majority_s));
  out.note("audit_ballots_per_s", median(audit_rates));
  if (!args.trace) {
    report(EndToEnd{median(setup_s), median(verified_per_s),
                    median(cpu_ms_per_ballot),
                    per(self_peak_rss_kb(), 1024)},
           out);
    return;
  }
  out.note("consensus.phase_s", median(consensus_s));
  out.note("bb.push_s", median(push_s));
  out.note("bb.publish_s", median(publish_s));
  out.note("bb.trustee_ballot_us",
           trustee_ballot_ns / 1e3 / std::max(trustee_ballots, 1.0));
  out.note("bb.cpu_s", median(bb_cpu));
  out.note("trustee.cpu_s", median(trustee_cpu));
  out.note("net.bytes_per_cast", send_bytes / std::max(casts, 1.0));
  out.note("store.finds_per_cast", finds / std::max(casts, 1.0));
  out.note("store.find_us", find_ns / 1e3 / std::max(finds, 1.0));
  out.note("client.audit_speedup",
           median(audit_rates) / median(audit_rates_1));
  Layers m;
  m.ea_setup_s = median(ea_s);
  m.core_build_s = median(build_s);
  // Every VC handler of the election (casts, vote-set consensus, push).
  m.vc_cpu_ms_per_cast = vc_cpu_ns / 1e6 / std::max(casts, 1.0);
  m.vc_msgs_per_cast = vc_handled / std::max(casts, 1.0);
  m.net_msgs_per_cast = sends / std::max(casts, 1.0);
  m.net_queue_high_water = high_water;
  report(m, out);
}

}  // namespace perfbench
