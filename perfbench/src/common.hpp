// Shared plumbing for the election benchmark: the run's result record
// (metrics, failure accounting, notes), clocks, order statistics and the
// /proc readers used for CPU and RSS accounting of node processes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // span dumps and WAL files go here
};

// What one run prints: the metrics a caller parses plus free-form notes
// (sample counts, checks, reported-only figures) on a preceding line.
struct Result {
  struct Metric {
    std::string name, unit;
    double value = 0;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);
  // A failed output check: the run is reported incorrect, with the reason.
  void check(bool ok, const std::string& what);
  void print() const;  // notes line, then the result line (last)
};

double wall_s();             // steady clock, seconds
std::int64_t wall_ns();      // steady clock, nanoseconds
std::int64_t thread_cpu_ns();
double process_cpu_s();      // user+sys of this process
std::uint64_t self_peak_rss_kb();

// `total` per item, 0 items counting as 1 (no division by zero).
inline double per(double total, std::size_t n) {
  return total / static_cast<double>(n ? n : 1);
}

// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// user+sys CPU seconds of a process from /proc/<pid>/stat (0 if gone).
double proc_cpu_s(pid_t pid);
// Live child processes of this process whose command name is `comm`.
std::vector<pid_t> child_pids(const std::string& comm);

}  // namespace perfbench
