#include "logmining/predictor.h"

#include <algorithm>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>

namespace prord::logmining {
namespace {

/// Orders predictions for deterministic top-k: confidence desc, then page
/// id asc (ties must not depend on hash iteration order).
bool better(const Prediction& a, const Prediction& b) {
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.page < b.page;
}

}  // namespace

// ---------------------------------------------------------------------------
// MarkovPredictor

MarkovPredictor::MarkovPredictor(unsigned order) : order_(order) {
  if (order == 0 || order > 8)
    throw std::invalid_argument("MarkovPredictor: order must be in [1,8]");
  tables_.resize(order);
}

std::uint64_t MarkovPredictor::context_key(
    std::span<const trace::FileId> ctx) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (trace::FileId f : ctx) {
    h ^= f + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
  }
  return h;
}

void MarkovPredictor::count(std::span<const trace::FileId> ctx,
                            trace::FileId next) {
  auto& stats = tables_[ctx.size() - 1][context_key(ctx)];
  ++stats.total;
  const auto [it, inserted] = stats.next.try_emplace(next, 0);
  ++it->second;
  entries_ += inserted;
}

void MarkovPredictor::observe(std::span<const trace::FileId> pages) {
  for (std::size_t i = 1; i < pages.size(); ++i) {
    const std::size_t max_ctx = std::min<std::size_t>(order_, i);
    for (std::size_t len = 1; len <= max_ctx; ++len)
      count(pages.subspan(i - len, len), pages[i]);
  }
}

void MarkovPredictor::observe_transition(
    std::span<const trace::FileId> context, trace::FileId page) {
  const std::size_t max_ctx = std::min<std::size_t>(order_, context.size());
  for (std::size_t len = 1; len <= max_ctx; ++len)
    count(context.subspan(context.size() - len, len), page);
}

std::optional<Prediction> MarkovPredictor::predict(
    std::span<const trace::FileId> context, double min_confidence) const {
  const auto all = predict_all(context, 1);
  if (all.empty() || all.front().confidence < min_confidence)
    return std::nullopt;
  return all.front();
}

std::vector<Prediction> MarkovPredictor::predict_all(
    std::span<const trace::FileId> context, std::size_t k) const {
  // Longest-context-first back-off: the most specific context with data
  // wins outright (standard PPM behaviour).
  const std::size_t max_ctx = std::min<std::size_t>(order_, context.size());
  for (std::size_t len = max_ctx; len >= 1; --len) {
    const auto ctx = context.subspan(context.size() - len, len);
    const auto& table = tables_[len - 1];
    const auto it = table.find(context_key(ctx));
    if (it == table.end() || it->second.total == 0) continue;
    std::vector<Prediction> preds;
    preds.reserve(it->second.next.size());
    for (const auto& [page, cnt] : it->second.next)
      preds.push_back(Prediction{
          page,
          static_cast<double>(cnt) / static_cast<double>(it->second.total),
          static_cast<unsigned>(len)});
    std::sort(preds.begin(), preds.end(), better);
    if (preds.size() > k) preds.resize(k);
    return preds;
  }
  return {};
}

void MarkovPredictor::save(std::ostream& out) const {
  out << "markov " << order_ << '\n';
  for (std::size_t level = 0; level < tables_.size(); ++level) {
    // Ordered copy for deterministic output.
    std::map<std::uint64_t, const ContextStats*> ordered;
    for (const auto& [key, stats] : tables_[level])
      ordered.emplace(key, &stats);
    out << "level " << level << ' ' << ordered.size() << '\n';
    for (const auto& [key, stats] : ordered) {
      std::map<trace::FileId, std::uint64_t> next(stats->next.begin(),
                                                  stats->next.end());
      out << key << ' ' << stats->total << ' ' << next.size();
      for (const auto& [page, cnt] : next) out << ' ' << page << ' ' << cnt;
      out << '\n';
    }
  }
  out << "end\n";
}

bool MarkovPredictor::load(std::istream& in) {
  std::string tag;
  unsigned order = 0;
  if (!(in >> tag >> order) || tag != "markov" || order != order_)
    return false;
  std::vector<std::unordered_map<std::uint64_t, ContextStats>> tables(order_);
  std::size_t entries = 0;
  for (unsigned level = 0; level < order_; ++level) {
    std::size_t level_idx = 0, contexts = 0;
    if (!(in >> tag >> level_idx >> contexts) || tag != "level" ||
        level_idx != level)
      return false;
    for (std::size_t c = 0; c < contexts; ++c) {
      std::uint64_t key = 0, total = 0;
      std::size_t n = 0;
      if (!(in >> key >> total >> n)) return false;
      ContextStats stats;
      stats.total = total;
      for (std::size_t i = 0; i < n; ++i) {
        trace::FileId page = 0;
        std::uint64_t cnt = 0;
        if (!(in >> page >> cnt)) return false;
        stats.next.emplace(page, cnt);
      }
      entries += stats.next.size();
      tables[level].emplace(key, std::move(stats));
    }
  }
  if (!(in >> tag) || tag != "end") return false;
  tables_ = std::move(tables);
  entries_ = entries;
  return true;
}

void MarkovPredictor::age(double keep_fraction, std::uint64_t min_count) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0)
    throw std::invalid_argument("age: keep_fraction in (0,1]");
  for (auto& table : tables_) {
    for (auto it = table.begin(); it != table.end();) {
      auto& stats = it->second;
      stats.total = 0;
      for (auto nit = stats.next.begin(); nit != stats.next.end();) {
        nit->second = std::max(
            static_cast<std::uint64_t>(static_cast<double>(nit->second) *
                                       keep_fraction),
            min_count);
        if (nit->second == 0) {
          nit = stats.next.erase(nit);
          --entries_;
        } else {
          stats.total += nit->second;
          ++nit;
        }
      }
      it = stats.next.empty() ? table.erase(it) : std::next(it);
    }
  }
}

// ---------------------------------------------------------------------------
// DependencyGraphPredictor

DependencyGraphPredictor::DependencyGraphPredictor(unsigned lookahead_window)
    : window_(lookahead_window) {
  if (lookahead_window == 0)
    throw std::invalid_argument("DependencyGraphPredictor: window == 0");
}

void DependencyGraphPredictor::add_arc(Node& node, trace::FileId to) {
  const auto [it, inserted] = node.arcs.try_emplace(to, 0);
  ++it->second;
  entries_ += inserted;
}

void DependencyGraphPredictor::observe(std::span<const trace::FileId> pages) {
  for (std::size_t i = 0; i < pages.size(); ++i) {
    Node& node = nodes_[pages[i]];
    ++node.occurrences;
    const std::size_t end = std::min(pages.size(), i + 1 + window_);
    for (std::size_t j = i + 1; j < end; ++j) {
      if (pages[j] == pages[i]) continue;
      add_arc(node, pages[j]);
    }
  }
}

void DependencyGraphPredictor::observe_transition(
    std::span<const trace::FileId> context, trace::FileId page) {
  // Online form: credit the last `window_` context pages with an arc.
  const std::size_t n =
      std::min<std::size_t>(window_, context.size());
  for (std::size_t i = 0; i < n; ++i) {
    const trace::FileId from = context[context.size() - 1 - i];
    if (from == page) continue;
    add_arc(nodes_[from], page);
  }
  if (!context.empty()) ++nodes_[context.back()].occurrences;
}

std::optional<Prediction> DependencyGraphPredictor::predict(
    std::span<const trace::FileId> context, double min_confidence) const {
  const auto all = predict_all(context, 1);
  if (all.empty() || all.front().confidence < min_confidence)
    return std::nullopt;
  return all.front();
}

std::vector<Prediction> DependencyGraphPredictor::predict_all(
    std::span<const trace::FileId> context, std::size_t k) const {
  if (context.empty()) return {};
  const auto it = nodes_.find(context.back());
  if (it == nodes_.end() || it->second.occurrences == 0) return {};
  std::vector<Prediction> preds;
  preds.reserve(it->second.arcs.size());
  for (const auto& [page, cnt] : it->second.arcs)
    preds.push_back(Prediction{
        page,
        std::min(1.0, static_cast<double>(cnt) /
                          static_cast<double>(it->second.occurrences)),
        1});
  std::sort(preds.begin(), preds.end(), better);
  if (preds.size() > k) preds.resize(k);
  return preds;
}

void DependencyGraphPredictor::save(std::ostream& out) const {
  out << "depgraph " << window_ << ' ' << nodes_.size() << '\n';
  std::map<trace::FileId, const Node*> ordered;
  for (const auto& [page, node] : nodes_) ordered.emplace(page, &node);
  for (const auto& [page, node] : ordered) {
    std::map<trace::FileId, std::uint64_t> arcs(node->arcs.begin(),
                                                node->arcs.end());
    out << page << ' ' << node->occurrences << ' ' << arcs.size();
    for (const auto& [to, cnt] : arcs) out << ' ' << to << ' ' << cnt;
    out << '\n';
  }
  out << "end\n";
}

bool DependencyGraphPredictor::load(std::istream& in) {
  std::string tag;
  unsigned window = 0;
  std::size_t n = 0;
  if (!(in >> tag >> window >> n) || tag != "depgraph" || window != window_)
    return false;
  std::unordered_map<trace::FileId, Node> nodes;
  std::size_t entries = 0;
  for (std::size_t i = 0; i < n; ++i) {
    trace::FileId page = 0;
    Node node;
    std::size_t arcs = 0;
    if (!(in >> page >> node.occurrences >> arcs)) return false;
    for (std::size_t a = 0; a < arcs; ++a) {
      trace::FileId to = 0;
      std::uint64_t cnt = 0;
      if (!(in >> to >> cnt)) return false;
      node.arcs.emplace(to, cnt);
    }
    entries += node.arcs.size();
    nodes.emplace(page, std::move(node));
  }
  if (!(in >> tag) || tag != "end") return false;
  nodes_ = std::move(nodes);
  entries_ = entries;
  return true;
}

void DependencyGraphPredictor::age(double keep_fraction,
                                   std::uint64_t min_count) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0)
    throw std::invalid_argument("age: keep_fraction in (0,1]");
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    auto& node = it->second;
    node.occurrences = std::max(
        static_cast<std::uint64_t>(static_cast<double>(node.occurrences) *
                                   keep_fraction),
        min_count);
    for (auto ait = node.arcs.begin(); ait != node.arcs.end();) {
      ait->second = std::max(
          static_cast<std::uint64_t>(static_cast<double>(ait->second) *
                                     keep_fraction),
          min_count);
      if (ait->second == 0) {
        ait = node.arcs.erase(ait);
        --entries_;
      } else {
        ++ait;
      }
    }
    it = (node.occurrences == 0 && node.arcs.empty()) ? nodes_.erase(it)
                                                      : std::next(it);
  }
}

// ---------------------------------------------------------------------------
// CandidatePathPredictor

CandidatePathPredictor::CandidatePathPredictor(unsigned order)
    : order_(order), counts_(order == 0 ? 1 : order) {
  if (order == 0 || order > 8)
    throw std::invalid_argument("CandidatePathPredictor: order in [1,8]");
}

void CandidatePathPredictor::add_link(trace::FileId from, trace::FileId to) {
  if (from == to) return;
  auto& out = links_[from];
  if (std::find(out.begin(), out.end(), to) == out.end()) {
    out.push_back(to);
    ++link_entries_;
  }
}

void CandidatePathPredictor::observe(std::span<const trace::FileId> pages) {
  for (std::size_t i = 1; i < pages.size(); ++i)
    add_link(pages[i - 1], pages[i]);
  counts_.observe(pages);
}

void CandidatePathPredictor::observe_transition(
    std::span<const trace::FileId> context, trace::FileId page) {
  if (!context.empty()) add_link(context.back(), page);
  counts_.observe_transition(context, page);
}

std::optional<Prediction> CandidatePathPredictor::predict(
    std::span<const trace::FileId> context, double min_confidence) const {
  const auto all = predict_all(context, 1);
  if (all.empty() || all.front().confidence < min_confidence)
    return std::nullopt;
  return all.front();
}

std::vector<Prediction> CandidatePathPredictor::predict_all(
    std::span<const trace::FileId> context, std::size_t k) const {
  if (context.empty()) return {};
  // Candidates are restricted to pages directly linked from the current
  // page — Algorithm 1's memory-bounding rule.
  const auto lit = links_.find(context.back());
  if (lit == links_.end()) return {};
  auto preds = counts_.predict_all(context, k + lit->second.size());
  std::erase_if(preds, [&](const Prediction& p) {
    return std::find(lit->second.begin(), lit->second.end(), p.page) ==
           lit->second.end();
  });
  if (preds.size() > k) preds.resize(k);
  return preds;
}

void CandidatePathPredictor::save(std::ostream& out) const {
  out << "candidatepath " << order_ << ' ' << links_.size() << '\n';
  std::map<trace::FileId, const std::vector<trace::FileId>*> ordered;
  for (const auto& [from, to] : links_) ordered.emplace(from, &to);
  for (const auto& [from, to] : ordered) {
    out << from << ' ' << to->size();
    for (trace::FileId t : *to) out << ' ' << t;
    out << '\n';
  }
  counts_.save(out);
}

bool CandidatePathPredictor::load(std::istream& in) {
  std::string tag;
  unsigned order = 0;
  std::size_t n = 0;
  if (!(in >> tag >> order >> n) || tag != "candidatepath" || order != order_)
    return false;
  std::unordered_map<trace::FileId, std::vector<trace::FileId>> links;
  std::size_t link_entries = 0;
  for (std::size_t i = 0; i < n; ++i) {
    trace::FileId from = 0;
    std::size_t outdeg = 0;
    if (!(in >> from >> outdeg)) return false;
    std::vector<trace::FileId> to(outdeg);
    for (auto& t : to)
      if (!(in >> t)) return false;
    link_entries += to.size();
    links.emplace(from, std::move(to));
  }
  if (!counts_.load(in)) return false;
  links_ = std::move(links);
  link_entries_ = link_entries;
  return true;
}

void CandidatePathPredictor::age(double keep_fraction,
                                 std::uint64_t min_count) {
  // Link structure is cheap and stable; only the hit counters age.
  counts_.age(keep_fraction, min_count);
}

std::vector<std::vector<trace::FileId>> CandidatePathPredictor::candidate_paths(
    trace::FileId page, std::size_t max_paths) const {
  // Algorithm 1 (make_candidate_path): depth-bounded DFS along links.
  std::vector<std::vector<trace::FileId>> out;
  std::vector<trace::FileId> current;
  std::function<void(trace::FileId, unsigned)> dfs =
      [&](trace::FileId at, unsigned depth) {
        if (out.size() >= max_paths) return;
        current.push_back(at);
        if (depth == order_) {
          out.push_back(current);
        } else {
          const auto it = links_.find(at);
          if (it == links_.end() || it->second.empty()) {
            out.push_back(current);
          } else {
            for (trace::FileId next : it->second) {
              if (std::find(current.begin(), current.end(), next) !=
                  current.end())
                continue;  // avoid cycles
              dfs(next, depth + 1);
              if (out.size() >= max_paths) break;
            }
          }
        }
        current.pop_back();
      };
  dfs(page, 0);
  return out;
}

}  // namespace prord::logmining
