// run_live_sharded: the live loopback cluster, assembled end to end.
//
// The one live assembly at every shard count: backend workers, one
// private belief router per shard (PRORD's popularity tracking mutates
// the mining model, so shards past the first build their own copy),
// LiveConfig::shards distributor shards behind one port
// (ShardedFrontend), the prediction service when prefetch is on, a
// multi-threaded load generator, /metrics and /slo scrapes, and
// consolidation. At shards == 1 the front end is the paper's single
// distributor: no gossip tick and no accept handoff.
#pragma once

#include "net/live_cluster.h"

namespace prord::scale {

/// Blocking end-to-end run. Builds site/trace/mining from the config,
/// serves it over loopback sockets, replays the workload, and returns the
/// consolidated result.
net::LiveRunResult run_live_sharded(const net::LiveConfig& config);

}  // namespace prord::scale
