#include "logmining/replication.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace prord::logmining {

std::uint32_t tier_replicas(ReplicaTier tier, std::uint32_t num_servers) {
  switch (tier) {
    case ReplicaTier::kAll:
      return num_servers;
    case ReplicaTier::kThreeQuarter:
      return std::max(1u, (num_servers * 3 + 3) / 4);
    case ReplicaTier::kHalf:
      return std::max(1u, (num_servers + 1) / 2);
    case ReplicaTier::kNoChange:
    case ReplicaTier::kNone:
      return 0;
  }
  return 0;
}

std::vector<ReplicaDirective> plan_replication(
    std::span<const RankEntry> rank_table, std::uint32_t num_servers,
    const ReplicationPlanOptions& options) {
  if (num_servers == 0)
    throw std::invalid_argument("plan_replication: num_servers == 0");
  std::vector<ReplicaDirective> plan;
  if (rank_table.empty()) return plan;

  // The table arrives sorted (Algorithm 3 step (i)); only debug builds
  // check, since a full scan per round would dominate the planner.
  assert(std::is_sorted(
      rank_table.begin(), rank_table.end(),
      [](const RankEntry& a, const RankEntry& b) { return a.rank > b.rank; }));
  const double top = rank_table.front().rank;
  if (top <= 0.0) return plan;
  const double t1 = top * options.t1_fraction_of_top;

  for (const auto& entry : rank_table) {
    if (entry.rank < options.min_rank) break;  // table is sorted descending
    ReplicaTier tier;
    if (entry.rank > 0.75 * t1)
      tier = ReplicaTier::kAll;
    else if (entry.rank > 0.5 * t1)
      tier = ReplicaTier::kThreeQuarter;
    else if (entry.rank > 0.25 * t1)
      tier = ReplicaTier::kHalf;
    else if (entry.rank > 0.125 * t1)
      tier = ReplicaTier::kNoChange;
    else
      tier = ReplicaTier::kNone;
    plan.push_back(ReplicaDirective{entry.file, tier,
                                    tier_replicas(tier, num_servers)});
    if (options.max_directives != 0 && plan.size() >= options.max_directives)
      break;
  }
  return plan;
}

}  // namespace prord::logmining
