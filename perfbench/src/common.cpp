#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, unit, value});
}

void Result::note(const std::string& key, double value) {
  notes.emplace_back(key, json_number(value));
}

void Result::note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, json_string(value));
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  note("check_failed." + std::to_string(notes.size()), what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Result::print() const {
  std::string line = "{";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    line += (i ? ", " : "") + json_string(notes[i].first) + ": " +
            notes[i].second;
  }
  std::printf("notes %s}\n", line.c_str());
  line = "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

double wall_s() { return static_cast<double>(wall_ns()) / 1e9; }

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::uint64_t self_peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

// Fields of /proc/<pid>/stat after the parenthesised command name.
std::vector<std::string> stat_fields(pid_t pid, std::string* comm) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  auto open = all.find('('), close = all.rfind(')');
  if (open == std::string::npos || close == std::string::npos) return {};
  if (comm) *comm = all.substr(open + 1, close - open - 1);
  std::istringstream rest(all.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string f; rest >> f;) fields.push_back(f);
  return fields;  // fields[0] = state, [1] = ppid, [11] = utime, [12] = stime
}

}  // namespace

double proc_cpu_s(pid_t pid) {
  std::vector<std::string> f = stat_fields(pid, nullptr);
  if (f.size() < 13) return 0;
  double ticks = std::stod(f[11]) + std::stod(f[12]);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<pid_t> child_pids(const std::string& comm) {
  std::vector<pid_t> out;
  const std::string self = std::to_string(getpid());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || !std::all_of(name.begin(), name.end(), ::isdigit)) {
      continue;
    }
    std::string c;
    std::vector<std::string> f = stat_fields(std::stoi(name), &c);
    if (f.size() > 1 && f[1] == self && c == comm && f[0] != "Z") {
      out.push_back(std::stoi(name));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
