// The metric names every workload prints; keeping them in one place keeps
// the workloads' result lines identical in shape.
#include "workloads.hpp"

namespace perfbench {

void report(const EndToEnd& m, Result& out) {
  out.metric("setup_s", m.setup_s, "s");
  out.metric("ops_per_s", m.ops_per_s, "1/s");
  out.metric("cpu_ms_per_op", m.cpu_ms_per_op, "ms");
  out.metric("peak_rss_mb", m.peak_rss_mb, "MB");
}

void report(const Layers& m, Result& out) {
  out.metric("ea.setup_s", m.ea_setup_s, "s");
  out.metric("core.build_s", m.core_build_s, "s");
  out.metric("vc.cpu_ms_per_cast", m.vc_cpu_ms_per_cast, "ms");
  out.metric("vc.msgs_per_cast", m.vc_msgs_per_cast, "count");
  out.metric("net.msgs_per_cast", m.net_msgs_per_cast, "count");
  out.metric("net.queue_high_water", m.net_queue_high_water, "count");
  crypto_panel(out);
}

}  // namespace perfbench
