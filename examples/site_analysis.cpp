// Site-analysis workbench: the offline side of PRORD's log mining.
//
// Demonstrates the parts of the mining library a site analyst (rather than
// the distributor) would use:
//   * unsupervised user categorization by dominant section (§3.1),
//   * persisting the mined model for the distributor process.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "logmining/categorizer.h"
#include "logmining/mining_model.h"
#include "trace/models.h"
#include "util/table.h"

int main() {
  using namespace prord;

  const auto spec = trace::cs_dept_spec();
  const trace::SiteModel site = trace::build_site(spec.site);
  const auto generated = trace::generate_trace(site, spec.gen);
  const auto workload = trace::build_workload(generated.records);
  const auto sessions = logmining::build_sessions(workload.requests);
  std::cout << "Analyzing " << sessions.size() << " sessions over "
            << workload.files.count() << " files\n";

  auto url = [&](trace::FileId f) { return workload.files.url(f); };

  // --- Unsupervised categorization by dominant site section.
  logmining::UserCategorizer categorizer;
  categorizer.train_by_section(
      sessions,
      [&](trace::FileId f) -> std::uint32_t {
        const auto& u = url(f);
        if (u.size() > 2 && u[1] == 's' && std::isdigit(u[2]))
          return static_cast<std::uint32_t>(u[2] - '0');
        return 0;
      },
      spec.site.sections);
  std::size_t confident = 0;
  for (const auto& s : sessions)
    confident += categorizer.classify(s.pages).confidence > 0.8;
  std::cout << "\nUnsupervised section categorizer: "
            << util::Table::num(
                   100.0 * static_cast<double>(confident) / sessions.size(), 1)
            << "% of sessions classified with confidence > 0.8\n";

  // --- Persist the full mined model for the distributor.
  const char* kModelPath = "prord_model.txt";
  {
    logmining::MiningModel model(workload.requests, logmining::MiningConfig{});
    std::ofstream out(kModelPath);
    model.save(out);
  }
  std::ifstream in(kModelPath);
  const auto restored = logmining::MiningModel::load(in, logmining::MiningConfig{});
  std::cout << "\nSaved and restored the mined model ("
            << (restored ? "ok" : "FAILED") << ", "
            << (restored ? restored->predictor().num_entries() : 0)
            << " predictor entries)\n";
  std::remove(kModelPath);
  return restored ? 0 : 1;
}
