#include "net/live_cluster.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <memory>
#include <utility>

#include "net/http.h"
#include "net/socket.h"
#include "trace/clf.h"
#include "trace/generator.h"
#include "trace/site_model.h"
#include "trace/workload.h"

namespace prord::net {

std::string http_get(std::uint16_t port, std::string_view target) {
  Fd fd = connect_loopback(port);
  if (!fd) return {};
  const std::string req = format_request(target);
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n =
        ::send(fd.get(), req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return {};
    }
    off += static_cast<std::size_t>(n);
  }
  ResponseScanner scanner;
  while (true) {
    const ReadStatus status = scanner.read_from(fd.get());
    if (const std::optional<ResponseView> resp = scanner.next())
      return std::string(resp->body);
    if (scanner.failed() || status == ReadStatus::kClosed) return {};
  }
}

bool prepare_live_setup(const LiveConfig& config, LiveSetup& out) {
  // --- Workload + site (mirrors run_experiment steps 1-3). ---
  core::ExperimentConfig& cfg = out.cfg;
  cfg.workload = config.workload;
  cfg.policy = config.policy;
  cfg.params.num_backends = config.backends;
  cfg.memory_fraction = config.memory_fraction;
  cfg.pinned_fraction = config.pinned_fraction;
  cfg.prefetch_threshold = config.prefetch_threshold;
  cfg.replication_interval = config.replication_interval;

  if (!config.clf_path.empty()) {
    std::ifstream in(config.clf_path);
    if (!in) return false;
    trace::ClfParser parser;
    const auto records = parser.parse_stream(in);
    if (records.empty()) return false;
    out.eval = trace::build_workload(records);
    // One real log: the mining pass and the replay share it.
    out.train = trace::build_workload(records);
    out.site_bytes = out.eval.files.total_bytes();
    out.workload_name = config.clf_path;
  } else {
    const trace::SiteModel site = trace::build_site(cfg.workload.site);
    const trace::GeneratedTrace eval_trace =
        trace::generate_trace(site, cfg.workload.gen);
    auto train_gen = cfg.workload.gen;
    train_gen.seed += cfg.train_seed_offset;
    const trace::GeneratedTrace train_trace =
        trace::generate_trace(site, train_gen);
    out.train = trace::build_workload(train_trace.records);
    out.eval = trace::build_workload(eval_trace.records, {}, out.train.files);
    out.site_bytes = site.total_bytes();
    out.workload_name = cfg.workload.name;
  }

  out.mining = cfg.mining;
  out.mining.prefetch_threshold = cfg.prefetch_threshold;
  if (core::policy_uses_mining(cfg.policy)) {
    out.model = std::make_shared<logmining::MiningModel>(out.train.requests,
                                                         out.mining);
  }

  // --- Cache sizing (same formula as the sim experiments). ---
  out.capacity =
      cfg.memory_fraction > 0
          ? static_cast<std::uint64_t>(cfg.memory_fraction *
                                       static_cast<double>(out.site_bytes) /
                                       cfg.params.num_backends)
          : cfg.params.app_memory_bytes;
  out.capacity = std::max<std::uint64_t>(out.capacity, 64 * 1024);
  out.pinned = 0;
  if (core::policy_uses_mining(cfg.policy)) {
    out.pinned = static_cast<std::uint64_t>(
        cfg.pinned_fraction * static_cast<double>(out.capacity));
    out.pinned = std::min(out.pinned, cfg.params.pinned_memory_bytes);
  }
  out.demand = out.capacity - out.pinned;
  return true;
}

}  // namespace prord::net
