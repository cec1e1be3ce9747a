// PRORD benchmark: entry point.
//
//   perfbench --workload hot|churn --seed N --seconds S --trace 0|1
//
// Each workload pairs one live traffic mix with one pinned simulator cell
// (README.md says why). The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer split.
// Lines before it, prefixed "# ", give sample counts and check results.
// Exit status 0 means every output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "live.h"
#include "proc_threads.h"
#include "report.h"
#include "sim.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  LiveSpec live;
  SimCell sim;
};

// Offered rates and limits, calibrated once on a 4-vCPU x86-64 VM where a
// 1-shard front end sustained about 34k req/s on `hot` and 14k on `churn`
// (README.md, "Calibration"): low near a fifth of that, high near two
// thirds.
const Workload kWorkloads[] = {
    {"hot",
     {.cs_dept = false,
      .memory_fraction = 0.30,
      .prefetch = false,
      .low_rps = 7000,
      .high_rps = 22000,
      .p99_limit_ms = 50.0},
     SimCell::kPaper},
    {"churn",
     {.cs_dept = true,
      .memory_fraction = 0.02,
      .prefetch = true,
      .low_rps = 3000,
      .high_rps = 9500,
      .p99_limit_ms = 50.0},
     SimCell::kDrift},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --list-workloads\n"
               "       perfbench --print-expected-rows\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("# %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int traced = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--print-expected-rows") {
      print_expected_rows();
      return 0;
    } else if (arg == "--list-workloads") {
      for (const Workload& k : kWorkloads) std::printf("%s\n", k.name);
      return 0;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      traced = std::atoi(argv[++i]);
    } else {
      usage();
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (workload == k.name) w = &k;
  if (w == nullptr || seconds <= 0.0 || (traced != 0 && traced != 1)) {
    usage();
    return 2;
  }

  SimPart sim_part(w->sim, traced == 1);
  const PartResult live = run_live_part(w->live, seed, seconds, traced == 1,
                                        [&] { sim_part.repeat(); });
  const PartResult sim = sim_part.finish();

  std::vector<std::string> errors;
  for (const PartResult* p : {&sim, &live}) {
    for (const std::string& n : p->notes) std::printf("# %s\n", n.c_str());
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
  }
  for (const std::string& e : errors) std::printf("# ERROR: %s\n", e.c_str());
  if (!sim.valid || !live.valid) {
    std::printf("# run void: no result\n");
    return 3;
  }

  std::vector<Metric> e2e = {{"setup_s", live.setup_s + sim.setup_s, "s"}};
  e2e.insert(e2e.end(), sim.end_to_end.begin(), sim.end_to_end.end());
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  e2e.insert(e2e.end(), live.end_to_end.begin(), live.end_to_end.end());
  std::vector<Metric> layers = {{"live.setup_s", live.setup_s, "s"},
                                {"sim.setup_s", sim.setup_s, "s"}};
  layers.insert(layers.end(), sim.per_layer.begin(), sim.per_layer.end());
  layers.insert(layers.end(), live.per_layer.begin(), live.per_layer.end());

  print_metrics(e2e);
  print_metrics(layers);
  const std::vector<Metric>& out = traced == 1 ? layers : e2e;
  for (const Metric& m : out) {
    if (std::isfinite(m.value)) continue;
    errors.push_back("metric " + m.name + " is not a number");
    std::printf("# ERROR: %s\n", errors.back().c_str());
  }
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(sim.attempted + live.attempted);
  json += ", \"failed\": " + std::to_string(sim.failed + live.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(out[i].value) ? out[i].value : -1.0);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
