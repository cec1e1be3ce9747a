#include "core/perf_report.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace prord::core {
namespace {

util::JsonValue scenario_to_json(const PerfScenario& s) {
  util::JsonValue v = util::JsonValue::object();
  v.set("name", s.name);
  v.set("mode", s.mode);
  v.set("t_start_ms", s.t_start_ms);
  v.set("t_end_ms", s.t_end_ms);
  v.set("wall_seconds", s.wall_seconds);
  v.set("sim_wall_seconds", s.sim_wall_seconds);
  v.set("sim_events", s.sim_events);
  v.set("events_per_sec", s.events_per_sec);
  v.set("requests", s.requests);
  v.set("requests_per_sec", s.requests_per_sec);
  v.set("p50_response_ms", s.p50_response_ms);
  v.set("p99_response_ms", s.p99_response_ms);
  v.set("allocations", s.allocations);
  v.set("allocations_per_event", s.allocations_per_event);
  v.set("shards", static_cast<std::uint64_t>(s.shards));
  return v;
}

/// First line of `command`'s stdout without its line break; empty when
/// the command cannot run or prints nothing.
std::string first_line_of(const char* command) {
  std::string line;
  if (FILE* pipe = ::popen(command, "r")) {
    char buf[128] = {0};
    if (std::fgets(buf, sizeof buf, pipe)) line = buf;
    ::pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

}  // namespace

util::JsonValue perf_report_to_json(const PerfReport& report) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema_version", kPerfSchemaVersion);
  doc.set("suite", report.suite);
  doc.set("git_sha", report.git_sha);
  doc.set("generated_unix_ms", report.generated_unix_ms);
  util::JsonValue scenarios = util::JsonValue::array();
  for (const PerfScenario& s : report.scenarios)
    scenarios.push_back(scenario_to_json(s));
  doc.set("scenarios", std::move(scenarios));
  util::JsonValue speedups = util::JsonValue::object();
  for (const PerfRatio& r : report.speedups) speedups.set(r.name, r.value);
  doc.set("speedups", std::move(speedups));
  return doc;
}

std::string render_perf_report(const PerfReport& report) {
  return perf_report_to_json(report).dump();
}

bool write_perf_report(const PerfReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perf_report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << render_perf_report(report);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "perf_report: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::string detect_git_sha() {
  for (const char* var : {"GITHUB_SHA", "PRORD_GIT_SHA"}) {
    if (const char* sha = std::getenv(var); sha && *sha) return sha;
  }
  // Local runs: ask git. popen is fine here — this is a bench binary, not
  // simulation code.
  std::string sha = first_line_of("git rev-parse HEAD 2>/dev/null");
  if (sha.size() < 7) return "unknown";
  // A report measured on a modified tree must not pass for the commit.
  if (!first_line_of("git status --porcelain --untracked-files=no "
                     "2>/dev/null")
           .empty())
    sha += "-dirty";
  return sha;
}

std::uint64_t unix_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace prord::core
