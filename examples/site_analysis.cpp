// Site-analysis workbench: the web-usage-mining analyses around PRORD.
//
// Demonstrates the parts of the mining library a site analyst (rather than
// the distributor) would use:
//   * frequent navigation-path fragments (WUM-style, [11][12][28]),
//   * entry paths into a target page of interest,
//   * website-reorganization suggestions ([6]): detours that deserve a
//     direct hyperlink,
//   * unsupervised user categorization by dominant section,
//   * persisting the mined model for the distributor process.
#include <fstream>
#include <iostream>
#include <sstream>

#include "logmining/categorizer.h"
#include "logmining/mining_model.h"
#include "logmining/reorganization.h"
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
            << workload.files.count() << " files\n\n";

  auto url = [&](trace::FileId f) { return workload.files.url(f); };

  // --- Frequent navigation fragments.
  logmining::PathMiner miner(2, 4, 5);
  miner.train(sessions);
  std::cout << "--- Most traversed path fragments ---\n";
  util::Table paths({"path", "traversals"});
  for (const auto& f : miner.fragments()) {
    if (paths.rows() >= 6) break;
    std::ostringstream line;
    for (std::size_t i = 0; i < f.pages.size(); ++i)
      line << (i ? " -> " : "") << url(f.pages[i]);
    paths.add_row({line.str(), std::to_string(f.count)});
  }
  paths.print(std::cout);

  // --- Entry paths into the hottest content page.
  logmining::PopularityTracker popularity(0);
  popularity.seed(workload.requests);
  trace::FileId target = trace::kInvalidFile;
  for (const auto& e : popularity.rank_table(0)) {
    const auto& u = url(e.file);
    if (!workload.files.is_embedded(e.file) &&
        u.find("/p") != std::string::npos) {
      target = e.file;
      break;
    }
  }
  if (target != trace::kInvalidFile) {
    std::cout << "\n--- How users reach " << url(target) << " ---\n";
    util::Table entry({"entry path", "traversals"});
    for (const auto& f : miner.paths_to(target, 5)) {
      std::ostringstream line;
      for (std::size_t i = 0; i < f.pages.size(); ++i)
        line << (i ? " -> " : "") << url(f.pages[i]);
      entry.add_row({line.str(), std::to_string(f.count)});
    }
    entry.print(std::cout);
  }

  // --- Reorganization: detours that deserve a direct link.
  std::cout << "\n--- Suggested shortcuts ([6]-style reorganization) ---\n";
  util::Table sugg({"add link", "detour users", "direct users", "benefit"});
  for (const auto& s : logmining::suggest_links(miner)) {
    if (sugg.rows() >= 6) break;
    sugg.add_row({url(s.from) + " -> " + url(s.to),
                  std::to_string(s.detour_traversals),
                  std::to_string(s.direct_traversals),
                  util::Table::num(s.benefit, 2)});
  }
  sugg.print(std::cout);

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
