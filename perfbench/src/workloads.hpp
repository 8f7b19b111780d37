// The benchmark's workloads. Every workload prints the same metrics, so
// runs of different workloads line up: the end-to-end metrics in an
// untraced run, the per-layer metrics in a traced one. Figures that only
// some workloads have go to the notes line.
#pragma once

#include "common.hpp"

namespace perfbench {

// End-to-end metrics; an "op" is the workload's unit of user-visible work
// (perfbench/README.md defines it for each workload).
struct EndToEnd {
  double setup_s = 0;
  double ops_per_s = 0;
  double cpu_ms_per_op = 0;
  double peak_rss_mb = 0;
};
void report(const EndToEnd& m, Result& out);

// Per-layer metrics measured on every workload; report() adds the crypto
// panel.
struct Layers {
  double ea_setup_s = 0;
  double core_build_s = 0;
  double vc_cpu_ms_per_cast = 0;
  double vc_msgs_per_cast = 0;
  double net_msgs_per_cast = 0;
  double net_queue_high_water = 0;
};
void report(const Layers& m, Result& out);

// `collect`: vote collection on net::ThreadNet in one process.
void run_collect(const RunArgs& args, Result& out);
// `tcp-collect`: the same load against one ddemos_node process per VC over
// loopback TCP with the write-ahead log on, then VC crashes and respawns.
void run_tcp_collect(const RunArgs& args, Result& out);
// `tally`: full elections on ThreadNet through polls closing, vote-set
// consensus, the BB push, trustee shares and the result, then the audit.
void run_tally(const RunArgs& args, Result& out);

// crypto.* per-layer metrics (fixed inputs, thread CPU, best of N).
void crypto_panel(Result& out);

}  // namespace perfbench
