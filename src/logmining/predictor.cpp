#include "logmining/predictor.h"

#include <algorithm>
#include <istream>
#include <map>
#include <numeric>
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
  index_.resize(order);
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

std::uint32_t MarkovPredictor::add_context(std::uint32_t level,
                                           std::uint64_t key) {
  const auto [slot, inserted] = index_[level].insert(
      key, static_cast<std::uint32_t>(contexts_.size()));
  if (inserted) contexts_.push_back(Context{key, 0, kNoSlot, level});
  return slot;
}

void MarkovPredictor::rebuild_index() {
  for (auto& index : index_) index.clear();
  for (std::size_t i = 0; i < contexts_.size(); ++i)
    index_[contexts_[i].level].insert(contexts_[i].key,
                                      static_cast<std::uint32_t>(i));
}

void MarkovPredictor::add_successor(Context& c, trace::FileId page,
                                    std::uint64_t n) {
  for (std::uint32_t e = c.head; e != kNoSlot; e = arena_[e].next) {
    if (arena_[e].id == page) {
      arena_[e].count += n;
      return;
    }
  }
  arena_.push_back(ArenaEntry{page, c.head, n});
  c.head = static_cast<std::uint32_t>(arena_.size() - 1);
}

void MarkovPredictor::count(std::span<const trace::FileId> ctx,
                            trace::FileId next) {
  Context& c = contexts_[add_context(
      static_cast<std::uint32_t>(ctx.size() - 1), context_key(ctx))];
  ++c.total;
  add_successor(c, next, 1);
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

const MarkovPredictor::Context* MarkovPredictor::match(
    std::span<const trace::FileId> context) const {
  // The most specific context with data wins outright (standard PPM
  // behaviour).
  const std::size_t max_ctx = std::min<std::size_t>(order_, context.size());
  for (std::size_t len = max_ctx; len >= 1; --len) {
    const std::uint32_t slot = index_[len - 1].find(
        context_key(context.subspan(context.size() - len, len)));
    if (slot != kNoSlot && contexts_[slot].total != 0)
      return &contexts_[slot];
  }
  return nullptr;
}

std::optional<Prediction> MarkovPredictor::best(
    std::span<const trace::FileId> context, double min_confidence,
    std::optional<trace::FileId> skip) const {
  const Context* c = match(context);
  if (!c) return std::nullopt;
  std::optional<Prediction> best;
  for (std::uint32_t e = c->head; e != kNoSlot; e = arena_[e].next) {
    if (arena_[e].id == skip) continue;
    const Prediction p = prediction(*c, arena_[e]);
    if (!best || better(p, *best)) best = p;
  }
  if (best && best->confidence < min_confidence) return std::nullopt;
  return best;
}

std::optional<Prediction> MarkovPredictor::predict(
    std::span<const trace::FileId> context, double min_confidence) const {
  return best(context, min_confidence, std::nullopt);
}

std::vector<Prediction> MarkovPredictor::predict_all(
    std::span<const trace::FileId> context, std::size_t k) const {
  const Context* c = match(context);
  if (!c) return {};
  std::vector<Prediction> preds;
  for (std::uint32_t e = c->head; e != kNoSlot; e = arena_[e].next)
    preds.push_back(prediction(*c, arena_[e]));
  std::sort(preds.begin(), preds.end(), better);
  if (preds.size() > k) preds.resize(k);
  return preds;
}

void MarkovPredictor::save(std::ostream& out) const {
  out << "markov " << order_ << '\n';
  // Canonical order: level, then context key, then successor page.
  std::vector<std::uint32_t> order(contexts_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Context& x = contexts_[a];
    const Context& y = contexts_[b];
    return x.level != y.level ? x.level < y.level : x.key < y.key;
  });
  std::vector<std::pair<trace::FileId, std::uint64_t>> next;
  auto it = order.begin();
  for (std::uint32_t level = 0; level < order_; ++level) {
    out << "level " << level << ' ' << index_[level].size() << '\n';
    for (; it != order.end() && contexts_[*it].level == level; ++it) {
      const Context& c = contexts_[*it];
      next.clear();
      for (std::uint32_t e = c.head; e != kNoSlot; e = arena_[e].next)
        next.emplace_back(arena_[e].id, arena_[e].count);
      std::sort(next.begin(), next.end());
      out << c.key << ' ' << c.total << ' ' << next.size();
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
  // Staged: a malformed stream leaves this predictor as it was.
  MarkovPredictor staged(order_);
  for (std::uint32_t level = 0; level < order_; ++level) {
    std::size_t level_idx = 0, contexts = 0;
    if (!(in >> tag >> level_idx >> contexts) || tag != "level" ||
        level_idx != level)
      return false;
    for (std::size_t i = 0; i < contexts; ++i) {
      std::uint64_t key = 0, total = 0;
      std::size_t n = 0;
      if (!(in >> key >> total >> n)) return false;
      // A repeated context keeps its first record (save() writes none).
      const bool fresh = staged.index_[level].find(key) == kNoSlot;
      Context& c = staged.contexts_[staged.add_context(level, key)];
      if (fresh) c.total = total;
      for (std::size_t j = 0; j < n; ++j) {
        trace::FileId page = 0;
        std::uint64_t cnt = 0;
        if (!(in >> page >> cnt)) return false;
        if (fresh) staged.add_successor(c, page, cnt);
      }
    }
  }
  if (!(in >> tag) || tag != "end") return false;
  *this = std::move(staged);
  return true;
}

void MarkovPredictor::age(double keep_fraction, std::uint64_t min_count) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0)
    throw std::invalid_argument("age: keep_fraction in (0,1]");
  // One compacting pass: surviving successors are rewritten contiguously
  // per context into a fresh arena, and contexts left without successors
  // are dropped.
  std::vector<ArenaEntry> arena;
  arena.reserve(arena_.size());
  std::size_t kept_contexts = 0;
  for (const Context& c : contexts_) {
    Context kept = c;
    kept.total = 0;
    kept.head = kNoSlot;
    for (std::uint32_t e = c.head; e != kNoSlot; e = arena_[e].next) {
      const std::uint64_t cnt = std::max(
          static_cast<std::uint64_t>(static_cast<double>(arena_[e].count) *
                                     keep_fraction),
          min_count);
      if (cnt == 0) continue;
      kept.total += cnt;
      arena.push_back(ArenaEntry{arena_[e].id, kept.head, cnt});
      kept.head = static_cast<std::uint32_t>(arena.size() - 1);
    }
    if (kept.head != kNoSlot) contexts_[kept_contexts++] = kept;
  }
  contexts_.resize(kept_contexts);
  arena_ = std::move(arena);
  rebuild_index();
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

const DependencyGraphPredictor::Node* DependencyGraphPredictor::node_of(
    std::span<const trace::FileId> context) const {
  if (context.empty()) return nullptr;
  const auto it = nodes_.find(context.back());
  if (it == nodes_.end() || it->second.occurrences == 0) return nullptr;
  return &it->second;
}

Prediction DependencyGraphPredictor::prediction(const Node& node,
                                                trace::FileId page,
                                                std::uint64_t cnt) {
  return Prediction{page,
                    std::min(1.0, static_cast<double>(cnt) /
                                      static_cast<double>(node.occurrences)),
                    1};
}

std::optional<Prediction> DependencyGraphPredictor::predict(
    std::span<const trace::FileId> context, double min_confidence) const {
  const Node* node = node_of(context);
  if (!node) return std::nullopt;
  std::optional<Prediction> best;
  for (const auto& [page, cnt] : node->arcs) {
    const Prediction p = prediction(*node, page, cnt);
    if (!best || better(p, *best)) best = p;
  }
  if (best && best->confidence < min_confidence) return std::nullopt;
  return best;
}

std::vector<Prediction> DependencyGraphPredictor::predict_all(
    std::span<const trace::FileId> context, std::size_t k) const {
  const Node* node = node_of(context);
  if (!node) return {};
  std::vector<Prediction> preds;
  preds.reserve(node->arcs.size());
  for (const auto& [page, cnt] : node->arcs)
    preds.push_back(prediction(*node, page, cnt));
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

std::optional<Prediction> CandidatePathPredictor::predict(
    std::span<const trace::FileId> context, double min_confidence) const {
  if (context.empty()) return std::nullopt;
  return counts_.best(context, min_confidence, context.back());
}

std::vector<Prediction> CandidatePathPredictor::predict_all(
    std::span<const trace::FileId> context, std::size_t k) const {
  if (context.empty()) return {};
  // The current page is at most one of the top k + 1 (saturating) rows.
  auto preds = counts_.predict_all(context, std::max(k, k + 1));
  std::erase_if(preds, [&](const Prediction& p) {
    return p.page == context.back();
  });
  if (preds.size() > k) preds.resize(k);
  return preds;
}

}  // namespace prord::logmining
