// Using the library as a standalone web-log mining toolkit.
//
// Demonstrates the file-based workflow a site operator would use:
//   1. write a trace to disk in Common Log Format,
//   2. parse it back with ClfParser (as you would a real access log),
//   3. reconstruct sessions, mine bundles / popularity / association
//      rules, and print a site report.
// Everything downstream of step 2 only sees CLF lines, so the same code
// works on real logs.
#include <fstream>
#include <iostream>
#include <sstream>

#include "logmining/association_rules.h"
#include "logmining/mining_model.h"
#include "trace/clf.h"
#include "trace/models.h"
#include "trace/workload.h"
#include "util/table.h"

int main() {
  using namespace prord;

  // 1. Produce an access log on disk (stand-in for a real server log).
  const char* kLogPath = "prord_access.log";
  {
    auto spec = trace::synthetic_spec();
    spec.gen.target_requests = 12'000;
    const auto built = trace::build(spec);
    std::ofstream out(kLogPath);
    trace::write_clf(out, built.trace.records);
  }

  // 2. Parse it like any Common Log Format file.
  std::ifstream in(kLogPath);
  trace::ClfParser parser;
  const auto records = parser.parse_stream(in);
  std::cout << "Parsed " << records.size() << " records from " << kLogPath
            << " (" << parser.malformed_lines() << " malformed, "
            << parser.num_hosts() << " distinct hosts)\n\n";

  // 3. Mine.
  const auto workload = trace::build_workload(records);
  const auto sessions = logmining::build_sessions(workload.requests);
  logmining::MiningModel model(workload.requests, logmining::MiningConfig{});

  std::cout << "Sessions: " << sessions.size() << ", mean length "
            << util::Table::num(
                   static_cast<double>(workload.num_main_pages) /
                       static_cast<double>(sessions.size()),
                   1)
            << " page views\n\n";

  std::cout << "--- Top pages ---\n";
  util::Table top({"url", "hits", "bundle"});
  const auto rank = model.popularity().rank_table(0);
  for (std::size_t i = 0; i < rank.size() && top.rows() < 8; ++i) {
    if (workload.files.is_embedded(rank[i].file)) continue;  // pages only
    const auto& url = workload.files.url(rank[i].file);
    std::ostringstream bundle;
    for (const auto obj : model.bundles().bundle_of(rank[i].file))
      bundle << workload.files.url(obj) << ' ';
    top.add_row({url, util::Table::num(rank[i].rank, 0),
                 bundle.str().empty() ? "-" : bundle.str()});
  }
  top.print(std::cout);

  std::cout << "\n--- Association rules (Apriori) ---\n";
  logmining::AprioriOptions opt;
  opt.min_support = 0.01;
  opt.min_confidence = 0.4;
  logmining::AssociationRuleMiner miner(opt);
  miner.train(sessions);
  util::Table rules({"rule", "support", "confidence"});
  for (std::size_t i = 0; i < miner.rules().size() && i < 8; ++i) {
    const auto& r = miner.rules()[i];
    std::ostringstream lhs;
    for (const auto f : r.antecedent) lhs << workload.files.url(f) << ' ';
    rules.add_row({lhs.str() + "=> " + workload.files.url(r.consequent),
                   util::Table::num(r.support, 3),
                   util::Table::num(r.confidence, 2)});
  }
  rules.print(std::cout);

  std::remove(kLogPath);
  return 0;
}
