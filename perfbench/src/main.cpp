// Election benchmark entry point:
//   perfbench --workload <collect|tcp-collect|tally> --seed <n>
//             --seconds <s> --trace <0|1> --out <dir>
// Prints a notes line, then one JSON result line (the last line of
// stdout). --trace 0 gives the end-to-end metrics; --trace 1 runs the
// traced variant and gives the per-layer metrics. Exit code 0 when the run
// completed; its output checks are in the result's "correct" field.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  RunArgs args;
  args.out_dir = "perfbench-out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  Result out;
  out.note("workload", args.workload);
  out.note("seed", static_cast<double>(args.seed));
  out.note("seconds", args.seconds);
  out.note("trace", args.trace ? 1.0 : 0.0);
  const double t0 = wall_s();
  try {
    if (args.workload == "collect") {
      run_collect(args, out);
    } else if (args.workload == "tcp-collect") {
      run_tcp_collect(args, out);
    } else if (args.workload == "tally") {
      run_tally(args, out);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    out.check(false, e.what());
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.failed = std::max<std::uint64_t>(out.failed, 1);
    out.print();
    return 1;
  }
  out.note("run_wall_s", wall_s() - t0);
  out.print();
  return 0;
}
