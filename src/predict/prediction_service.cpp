#include "predict/prediction_service.h"

#include <algorithm>

namespace prord::predict {
namespace {

logmining::MiningConfig mining_config_for(const PredictorParams& params) {
  logmining::MiningConfig config;
  config.predictor = logmining::PredictorKind::kCandidatePath;
  config.predictor_order = params.order;
  config.prefetch_threshold = params.confidence;
  return config;
}

/// The graph backend's working model: an empty-window warm-start clone of
/// `warm_start` (the predictor only; bundles and popularity stay empty),
/// or an empty model when there is none.
std::unique_ptr<logmining::MiningModel> working_model(
    const PredictorParams& params, const logmining::MiningModel* warm_start) {
  if (warm_start)
    return std::make_unique<logmining::MiningModel>(
        std::span<const logmining::Session>{},
        std::span<const trace::Request>{}, warm_start->config(), warm_start);
  return std::make_unique<logmining::MiningModel>(
      std::span<const trace::Request>{}, mining_config_for(params));
}

}  // namespace

const char* algo_name(Algo algo) noexcept {
  switch (algo) {
    case Algo::kPrordGraph: return "prord-graph";
    case Algo::kMithril: return "mithril";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Link

class PredictionService::Link final : public IPredictorLink {
 public:
  explicit Link(PredictionService* service) : service_(service) {
    service_->links_.fetch_add(1, std::memory_order_relaxed);
  }
  ~Link() override { service_->links_.fetch_sub(1, std::memory_order_relaxed); }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void feed(const Observation& obs) override { service_->feed(obs); }

  std::vector<Association> associations(std::span<const trace::FileId> context,
                                        std::size_t k) override {
    return service_->associations(context, k);
  }

 private:
  PredictionService* service_;
};

// ---------------------------------------------------------------------------
// Service

PredictionService::PredictionService(
    const PredictorParams& params,
    const std::shared_ptr<logmining::MiningModel>& warm_start)
    : params_(params),
      history_cap_(std::max<std::size_t>(params.order + 1,
                                         params.lookahead_range)),
      interval_us_(std::max<std::int64_t>(1, params.mine_interval_us)),
      next_pass_us_(interval_us_) {
  if (params_.algo == Algo::kMithril)
    miner_ = std::make_unique<MithrilMiner>(params_);
  else
    working_ = working_model(params_, warm_start.get());
}

std::shared_ptr<IPredictorLink> PredictionService::register_link() {
  return std::make_shared<Link>(this);
}

void PredictionService::feed(const Observation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  // The pass covers everything fed before the boundary this feed reaches.
  if (obs.t_us >= next_pass_us_) {
    mine_locked();
    next_pass_us_ = (obs.t_us / interval_us_ + 1) * interval_us_;
  }
  apply_locked(obs);
  ++feeds_;
}

void PredictionService::apply_locked(const Observation& obs) {
  if (miner_) {
    miner_->observe(obs);
    return;
  }

  // Graph backend mirrors the Prord policy's online rule: main pages only,
  // transition from the connection's prior context.
  if (!obs.main_page || obs.file == trace::kInvalidFile) return;
  auto it = history_.find(obs.conn);
  if (it == history_.end()) {
    if (history_.size() >= params_.record_table_rows &&
        !history_lru_.empty()) {
      const std::uint32_t victim = history_lru_.back();
      history_lru_.pop_back();
      history_.erase(victim);
    }
    history_lru_.push_front(obs.conn);
    it = history_.emplace(obs.conn, HistoryRow{{}, history_lru_.begin()})
             .first;
  } else {
    history_lru_.splice(history_lru_.begin(), history_lru_,
                        it->second.lru_it);
  }
  auto& pages = it->second.pages;
  if (!pages.empty()) working_->predictor().observe_transition(pages, obs.file);
  pages.push_back(obs.file);
  if (pages.size() > history_cap_) pages.erase(pages.begin());
}

void PredictionService::mine_locked() {
  if (miner_) {
    miner_->mine();
  } else {
    // Bounded memory for the graph: halve counters (dropping zeros) until
    // the table fits — age() is the predictor's own eviction mechanism.
    auto& predictor = working_->predictor();
    for (int round = 0;
         round < 8 && predictor.num_entries() > params_.mining_table_rows;
         ++round)
      predictor.age(0.5);
  }
  ++mine_passes_;
}

std::vector<Association> PredictionService::associations(
    std::span<const trace::FileId> context, std::size_t k) {
  std::vector<Association> out;
  std::lock_guard<std::mutex> lock(mu_);
  ++predictions_;
  if (context.empty() || k == 0) return out;

  if (miner_) {
    if (const auto* row = miner_->find(context.back()))
      out.assign(row->begin(),
                 row->begin() + static_cast<std::ptrdiff_t>(
                                    std::min(k, row->size())));
    return out;
  }
  for (const auto& p : working_->predictor().predict_all(context, k))
    out.push_back(Association{p.page, p.confidence});
  return out;
}

PredictorStats PredictionService::stats() const {
  PredictorStats s;
  s.links = links_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.feeds = feeds_;
  s.mine_passes = mine_passes_;
  s.predictions = predictions_;
  if (miner_) {
    s.record_rows = miner_->record_rows();
    s.mining_rows = miner_->mining_rows();
    s.prefetch_rows = miner_->prefetch_rows();
  } else {
    s.record_rows = history_.size();
    s.mining_rows = working_->predictor().num_entries();
    s.prefetch_rows = 0;  // the graph has no separate promoted table
  }
  return s;
}

std::unique_ptr<IPredictor> make_prediction_service(
    const PredictorParams& params,
    std::shared_ptr<logmining::MiningModel> warm_start) {
  return std::make_unique<PredictionService>(params, warm_start);
}

}  // namespace prord::predict
