// The mined state lives in flat storage (open-addressing indexes over dense
// records, per-owner lists chained through one arena). These fuzzes run it
// side by side with test-local copies of the nested hash-map classes it
// replaced and compare every observable after every step: save() text,
// predict / predict_all on every visited context, num_entries, bundle_of,
// rank_table and top_rank_table. The references are the pre-flat code,
// trimmed to what the comparison reads. The candidate-path reference keeps
// its link table as the prediction oracle; the library stores only the hit
// counters, so its text and entry count are compared with the reference's
// Markov half.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "logmining/bundle.h"
#include "logmining/popularity.h"
#include "logmining/predictor.h"
#include "util/rng.h"

namespace prord::logmining {
namespace {

using trace::FileId;

// ---------------------------------------------------------------------------
// References: the nested-map classes.

namespace ref {

bool better(const Prediction& a, const Prediction& b) {
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.page < b.page;
}

class Markov {
 public:
  explicit Markov(unsigned order) : order_(order), tables_(order) {}

  void observe(std::span<const FileId> pages) {
    for (std::size_t i = 1; i < pages.size(); ++i) {
      const std::size_t max_ctx = std::min<std::size_t>(order_, i);
      for (std::size_t len = 1; len <= max_ctx; ++len)
        count(pages.subspan(i - len, len), pages[i]);
    }
  }
  void observe_transition(std::span<const FileId> context, FileId page) {
    const std::size_t max_ctx = std::min<std::size_t>(order_, context.size());
    for (std::size_t len = 1; len <= max_ctx; ++len)
      count(context.subspan(context.size() - len, len), page);
  }
  std::vector<Prediction> predict_all(std::span<const FileId> context,
                                      std::size_t k) const {
    const std::size_t max_ctx = std::min<std::size_t>(order_, context.size());
    for (std::size_t len = max_ctx; len >= 1; --len) {
      const auto ctx = context.subspan(context.size() - len, len);
      const auto& table = tables_[len - 1];
      const auto it = table.find(key(ctx));
      if (it == table.end() || it->second.total == 0) continue;
      std::vector<Prediction> preds;
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
  std::size_t num_entries() const {
    std::size_t n = 0;
    for (const auto& table : tables_)
      for (const auto& [key, stats] : table) n += stats.next.size();
    return n;
  }
  void save(std::ostream& out) const {
    out << "markov " << order_ << '\n';
    for (std::size_t level = 0; level < tables_.size(); ++level) {
      std::map<std::uint64_t, const Stats*> ordered;
      for (const auto& [key, stats] : tables_[level])
        ordered.emplace(key, &stats);
      out << "level " << level << ' ' << ordered.size() << '\n';
      for (const auto& [key, stats] : ordered) {
        const std::map<FileId, std::uint64_t> next(stats->next.begin(),
                                                   stats->next.end());
        out << key << ' ' << stats->total << ' ' << next.size();
        for (const auto& [page, cnt] : next) out << ' ' << page << ' ' << cnt;
        out << '\n';
      }
    }
    out << "end\n";
  }
  bool load(std::istream& in) {
    std::string tag;
    unsigned order = 0;
    if (!(in >> tag >> order) || tag != "markov" || order != order_)
      return false;
    std::vector<std::unordered_map<std::uint64_t, Stats>> tables(order_);
    for (unsigned level = 0; level < order_; ++level) {
      std::size_t level_idx = 0, contexts = 0;
      if (!(in >> tag >> level_idx >> contexts) || tag != "level" ||
          level_idx != level)
        return false;
      for (std::size_t c = 0; c < contexts; ++c) {
        std::uint64_t k = 0, total = 0;
        std::size_t n = 0;
        if (!(in >> k >> total >> n)) return false;
        Stats stats;
        stats.total = total;
        for (std::size_t i = 0; i < n; ++i) {
          FileId page = 0;
          std::uint64_t cnt = 0;
          if (!(in >> page >> cnt)) return false;
          stats.next.emplace(page, cnt);
        }
        tables[level].emplace(k, std::move(stats));
      }
    }
    if (!(in >> tag) || tag != "end") return false;
    tables_ = std::move(tables);
    return true;
  }
  void age(double keep_fraction, std::uint64_t min_count) {
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
          } else {
            stats.total += nit->second;
            ++nit;
          }
        }
        it = stats.next.empty() ? table.erase(it) : std::next(it);
      }
    }
  }

 private:
  struct Stats {
    std::uint64_t total = 0;
    std::unordered_map<FileId, std::uint64_t> next;
  };
  static std::uint64_t key(std::span<const FileId> ctx) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (FileId f : ctx) {
      h ^= f + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      h *= 0xBF58476D1CE4E5B9ULL;
    }
    return h;
  }
  void count(std::span<const FileId> ctx, FileId next) {
    auto& stats = tables_[ctx.size() - 1][key(ctx)];
    ++stats.total;
    ++stats.next[next];
  }

  unsigned order_;
  std::vector<std::unordered_map<std::uint64_t, Stats>> tables_;
};

class CandidatePath {
 public:
  explicit CandidatePath(unsigned order) : counts_(order) {}

  void observe(std::span<const FileId> pages) {
    for (std::size_t i = 1; i < pages.size(); ++i)
      add_link(pages[i - 1], pages[i]);
    counts_.observe(pages);
  }
  void observe_transition(std::span<const FileId> context, FileId page) {
    if (!context.empty()) add_link(context.back(), page);
    counts_.observe_transition(context, page);
  }
  std::vector<Prediction> predict_all(std::span<const FileId> context,
                                      std::size_t k) const {
    if (context.empty()) return {};
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
  /// Loads the library's text, which holds only the hit counters; the
  /// links stay, since they were learned from the same transitions.
  bool load(std::istream& in) { return counts_.load(in); }
  void age(double keep_fraction, std::uint64_t min_count) {
    counts_.age(keep_fraction, min_count);
  }
  const Markov& counts() const { return counts_; }

 private:
  void add_link(FileId from, FileId to) {
    if (from == to) return;
    auto& out = links_[from];
    if (std::find(out.begin(), out.end(), to) == out.end()) out.push_back(to);
  }

  std::unordered_map<FileId, std::vector<FileId>> links_;
  Markov counts_;
};

class Bundles {
 public:
  explicit Bundles(double min_cooccurrence) : min_(min_cooccurrence) {}

  void observe(std::span<const trace::Request> requests) {
    for (const auto& req : requests) {
      if (req.is_embedded) {
        if (req.parent_page != trace::kInvalidFile)
          ++counts_[req.parent_page].objects[req.file];
      } else {
        ++counts_[req.file].views;
      }
    }
  }
  void finalize() {
    bundles_.clear();
    for (const auto& [page, pc] : counts_) {
      if (pc.views == 0) continue;
      std::vector<FileId> members;
      for (const auto& [obj, cnt] : pc.objects)
        if (static_cast<double>(cnt) / static_cast<double>(pc.views) >= min_)
          members.push_back(obj);
      if (members.empty()) continue;
      std::sort(members.begin(), members.end());
      bundles_.emplace(page, std::move(members));
    }
  }
  std::vector<FileId> bundle_of(FileId page) const {
    const auto it = bundles_.find(page);
    return it == bundles_.end() ? std::vector<FileId>{} : it->second;
  }
  std::size_t num_bundles() const { return bundles_.size(); }
  void save(std::ostream& out) const {
    out << "bundles " << counts_.size() << '\n';
    std::map<FileId, const PageCounts*> ordered;
    for (const auto& [page, pc] : counts_) ordered.emplace(page, &pc);
    for (const auto& [page, pc] : ordered) {
      const std::map<FileId, std::uint64_t> objects(pc->objects.begin(),
                                                    pc->objects.end());
      out << page << ' ' << pc->views << ' ' << objects.size();
      for (const auto& [obj, cnt] : objects) out << ' ' << obj << ' ' << cnt;
      out << '\n';
    }
    out << "end\n";
  }
  bool load(std::istream& in) {
    std::string tag;
    std::size_t n = 0;
    if (!(in >> tag >> n) || tag != "bundles") return false;
    std::unordered_map<FileId, PageCounts> counts;
    for (std::size_t i = 0; i < n; ++i) {
      FileId page = 0;
      PageCounts pc;
      std::size_t objects = 0;
      if (!(in >> page >> pc.views >> objects)) return false;
      for (std::size_t o = 0; o < objects; ++o) {
        FileId obj = 0;
        std::uint64_t cnt = 0;
        if (!(in >> obj >> cnt)) return false;
        pc.objects.emplace(obj, cnt);
      }
      counts.emplace(page, std::move(pc));
    }
    if (!(in >> tag) || tag != "end") return false;
    counts_ = std::move(counts);
    finalize();
    return true;
  }

 private:
  struct PageCounts {
    std::uint64_t views = 0;
    std::unordered_map<FileId, std::uint64_t> objects;
  };
  double min_;
  std::unordered_map<FileId, PageCounts> counts_;
  std::unordered_map<FileId, std::vector<FileId>> bundles_;
};

/// The tracker's counters without its incremental top-k band: top-k is
/// specified as the first k rows of rank_table, which this computes by a
/// full sort.
class Popularity {
 public:
  explicit Popularity(sim::SimTime halflife) : halflife_(halflife) {}

  void seed(std::span<const trace::Request> requests) {
    for (const auto& req : requests) entries_[req.file].value += 1.0;
  }
  void record_hit(FileId file, sim::SimTime now) {
    auto& e = entries_[file];
    e.value = decayed(e, now) + 1.0;
    e.stamp = std::max(e.stamp, now);
  }
  double rank(FileId file, sim::SimTime now) const {
    const auto it = entries_.find(file);
    return it == entries_.end() ? 0.0 : decayed(it->second, now);
  }
  std::vector<RankEntry> rank_table(sim::SimTime now) const {
    std::vector<RankEntry> table;
    for (const auto& [file, e] : entries_)
      table.push_back(RankEntry{file, decayed(e, now)});
    std::sort(table.begin(), table.end(),
              [](const RankEntry& a, const RankEntry& b) {
                return a.rank != b.rank ? a.rank > b.rank : a.file < b.file;
              });
    return table;
  }
  std::size_t num_files() const { return entries_.size(); }
  void age(double keep_fraction) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it->second.value *= keep_fraction;
      it = it->second.value < 1e-6 ? entries_.erase(it) : std::next(it);
    }
  }
  void save(std::ostream& out) const {
    out << "popularity " << halflife_ << ' ' << entries_.size() << '\n';
    const std::map<FileId, Entry> ordered(entries_.begin(), entries_.end());
    for (const auto& [file, e] : ordered)
      out << file << ' ' << std::bit_cast<std::uint64_t>(e.value) << ' '
          << e.stamp << '\n';
    out << "end\n";
  }

 private:
  struct Entry {
    double value = 0.0;
    sim::SimTime stamp = 0;
  };
  double decayed(const Entry& e, sim::SimTime now) const {
    if (halflife_ == 0 || now <= e.stamp) return e.value;
    const double dt = static_cast<double>(now - e.stamp);
    return e.value * std::exp2(-dt / static_cast<double>(halflife_));
  }

  sim::SimTime halflife_;
  std::unordered_map<FileId, Entry> entries_;
};

}  // namespace ref

// ---------------------------------------------------------------------------
// Comparison helpers.

template <typename T>
std::string saved(const T& x) {
  std::ostringstream out;
  x.save(out);
  return out.str();
}

std::string show(const std::vector<Prediction>& preds) {
  std::ostringstream out;
  for (const auto& p : preds)
    out << p.page << ':' << std::bit_cast<std::uint64_t>(p.confidence) << ':'
        << p.matched_order << ' ';
  return out.str();
}

std::string show(const std::optional<Prediction>& p) {
  return p ? show(std::vector<Prediction>{*p}) : std::string("none");
}

std::string show(const std::vector<RankEntry>& rows) {
  std::ostringstream out;
  for (const auto& r : rows)
    out << r.file << ':' << std::bit_cast<std::uint64_t>(r.rank) << ' ';
  return out.str();
}

/// The reference's top-1 under a confidence floor, as predict() specifies
/// it: predict_all(ctx, 1).front() when it clears the floor.
template <typename Ref>
std::optional<Prediction> ref_predict(const Ref& r,
                                      std::span<const FileId> ctx,
                                      double min_confidence) {
  const auto all = r.predict_all(ctx, 1);
  if (all.empty() || all.front().confidence < min_confidence)
    return std::nullopt;
  return all.front();
}

/// The counters the library stores for a reference: all of ref::Markov,
/// and ref::CandidatePath's Markov half.
const ref::Markov& counters(const ref::Markov& r) { return r; }
const ref::Markov& counters(const ref::CandidatePath& r) { return r.counts(); }

/// Compares every observable of a predictor against its reference on each
/// context in `contexts` (every window of up to `order` pages the fuzz has
/// fed it: a longer context answers as its last `order` pages do).
template <typename Ref>
void expect_same_predictor(const Predictor& p, const Ref& r,
                           const std::set<std::vector<FileId>>& contexts,
                           const std::string& where) {
  ASSERT_EQ(saved(p), saved(counters(r))) << where;
  ASSERT_EQ(p.num_entries(), counters(r).num_entries()) << where;
  for (const auto& ctx : contexts) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{1000}})
      ASSERT_EQ(show(p.predict_all(ctx, k)), show(r.predict_all(ctx, k)))
          << where << " k " << k;
    for (const double floor : {0.0, 0.5}) {
      const auto got = p.predict(ctx, floor);
      ASSERT_EQ(show(got), show(ref_predict(r, ctx, floor))) << where;
      ASSERT_EQ(show(got), show(ref_predict(p, ctx, floor))) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Predictor fuzz.

/// One step of the shared fuzz script, applied identically to the subject
/// and the reference. Pages come from a small universe, so contexts repeat,
/// successors accumulate, self-loops occur and aging drops entries.
template <typename Subject, typename Ref>
void fuzz_predictor(unsigned order, std::uint64_t seed) {
  util::Rng rng(seed);
  auto p = std::make_unique<Subject>(order);
  auto r = std::make_unique<Ref>(order);
  std::set<std::vector<FileId>> contexts;
  const auto page = [&] { return static_cast<FileId>(rng.below(16)); };
  const auto pages = [&](std::size_t max_len) {
    std::vector<FileId> seq(rng.below(max_len + 1));
    for (auto& f : seq) f = page();
    return seq;
  };
  const auto remember = [&](const std::vector<FileId>& seq) {
    for (std::size_t end = 0; end <= seq.size(); ++end)
      for (std::size_t len = 0; len <= std::min<std::size_t>(end, order);
           ++len)
        contexts.emplace(seq.begin() + static_cast<std::ptrdiff_t>(end - len),
                         seq.begin() + static_cast<std::ptrdiff_t>(end));
  };
  for (int step = 0; step < 150; ++step) {
    const std::uint64_t op = rng.below(100);
    std::string what;
    if (op < 35) {
      what = "observe";
      const auto seq = pages(10);
      p->observe(seq);
      r->observe(seq);
      remember(seq);
    } else if (op < 70) {
      what = "observe_transition";
      auto ctx = pages(4);
      const FileId next = page();
      p->observe_transition(ctx, next);
      r->observe_transition(ctx, next);
      ctx.push_back(next);
      remember(ctx);
    } else if (op < 82) {
      what = "age";
      const double keep = rng.below(2) ? 0.5 : 0.9;
      const std::uint64_t min_count = rng.below(2);
      p->age(keep, min_count);
      r->age(keep, min_count);
    } else if (op < 91) {
      what = "load";
      // Each loads the other's text, so a mismatch in either parser or
      // writer shows up.
      std::stringstream for_p(saved(counters(*r))), for_r(saved(*p));
      auto fresh = std::make_unique<Subject>(order);
      fresh->observe(pages(6));  // state load() must replace
      ASSERT_TRUE(fresh->load(for_p));
      p = std::move(fresh);
      ASSERT_TRUE(r->load(for_r));
    } else {
      what = "clone";
      std::unique_ptr<Predictor> copy = p->clone();
      // The original learns on; the clone must not move with it.
      const std::string before = saved(*copy);
      p->observe(std::vector<FileId>{1, 2, 3, 1, 2, 4});
      ASSERT_EQ(saved(*copy), before);
      p.reset(static_cast<Subject*>(copy.release()));
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_predictor(
        *p, *r, contexts, "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " after " + what));
  }
  EXPECT_GT(p->num_entries(), 0u);
}

TEST(FlatEquivalence, MarkovMatchesNestedMaps) {
  for (const std::uint64_t seed : {11u, 12u, 13u})
    for (const unsigned order : {1u, 2u, 3u})
      ASSERT_NO_FATAL_FAILURE(
          (fuzz_predictor<MarkovPredictor, ref::Markov>(order, seed)));
}

TEST(FlatEquivalence, CandidatePathMatchesNestedMaps) {
  for (const std::uint64_t seed : {21u, 22u, 23u})
    for (const unsigned order : {1u, 2u, 3u})
      ASSERT_NO_FATAL_FAILURE(
          (fuzz_predictor<CandidatePathPredictor, ref::CandidatePath>(order,
                                                                      seed)));
}

// Self-loops are counted but never linked, so the candidate path predictor
// must skip its best successor when that successor is the page itself.
TEST(FlatEquivalence, SelfLoopTopOne) {
  CandidatePathPredictor p(2);
  ref::CandidatePath r(2);
  const std::vector<FileId> seq{4, 4, 4, 4, 9, 4, 4, 4, 7};
  p.observe(seq);
  r.observe(seq);
  std::set<std::vector<FileId>> contexts{{4}, {4, 4}, {9, 4}, {4, 9}, {7}};
  ASSERT_NO_FATAL_FAILURE(expect_same_predictor(p, r, contexts, "self-loop"));
  const auto top = p.predict(std::vector<FileId>{4, 4}, 0.0);
  ASSERT_TRUE(top);
  EXPECT_NE(top->page, 4u);
  MarkovPredictor m(2);
  ref::Markov rm(2);
  m.observe(seq);
  rm.observe(seq);
  ASSERT_NO_FATAL_FAILURE(
      expect_same_predictor(m, rm, contexts, "self-loop markov"));
  EXPECT_EQ(m.predict(std::vector<FileId>{4, 4}, 0.0)->page, 4u);
}

// The dependency graph keeps its maps, but its predict() is the same
// single scan: it must equal predict_all(ctx, 1)'s row through training,
// aging and loads.
TEST(FlatEquivalence, DependencyGraphTopOneMatchesPredictAll) {
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    util::Rng rng(seed);
    auto p = std::make_unique<DependencyGraphPredictor>(1 + rng.below(3));
    for (int step = 0; step < 150; ++step) {
      std::vector<FileId> seq(rng.below(10));
      for (auto& f : seq) f = static_cast<FileId>(rng.below(16));
      const std::uint64_t op = rng.below(10);
      if (op < 6) {
        p->observe(seq);
      } else if (op < 8) {
        p->age(rng.below(2) ? 0.5 : 0.9, rng.below(2));
      } else {
        std::stringstream text(saved(*p));
        auto fresh = std::make_unique<DependencyGraphPredictor>(p->window());
        ASSERT_TRUE(fresh->load(text));
        p = std::move(fresh);
      }
      for (FileId page = 0; page < 16; ++page) {
        const std::vector<FileId> ctx{page};
        for (const double floor : {0.0, 0.5})
          ASSERT_EQ(show(p->predict(ctx, floor)),
                    show(ref_predict(*p, ctx, floor)))
              << "seed " << seed << " step " << step;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bundle fuzz.

TEST(FlatEquivalence, BundlesMatchNestedMaps) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    util::Rng rng(seed);
    const double threshold = seed == 42 ? 0.3 : 0.5;
    BundleMiner b(threshold);
    ref::Bundles r(threshold);
    const auto batch = [&] {
      std::vector<trace::Request> reqs(rng.below(30));
      for (auto& req : reqs) {
        req.is_embedded = rng.below(3) != 0;
        if (req.is_embedded) {
          req.file = static_cast<FileId>(100 + rng.below(40));
          req.parent_page = rng.below(10) == 0
                                ? trace::kInvalidFile
                                : static_cast<FileId>(rng.below(20));
        } else {
          req.file = static_cast<FileId>(rng.below(20));
        }
      }
      return reqs;
    };
    for (int step = 0; step < 200; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 50) {
        const auto reqs = batch();
        b.observe(reqs);
        r.observe(reqs);
      } else if (op < 75) {
        b.finalize();
        r.finalize();
      } else if (op < 88) {
        std::stringstream for_b(saved(r)), for_r(saved(b));
        BundleMiner fresh(threshold);
        fresh.observe(batch());
        ASSERT_TRUE(fresh.load(for_b));
        b = fresh;
        ASSERT_TRUE(r.load(for_r));
      } else {
        BundleMiner copy = b;
        const std::string before = saved(copy);
        b.observe(batch());
        b.finalize();
        ASSERT_EQ(saved(copy), before);
        b = std::move(copy);
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ASSERT_EQ(saved(b), saved(r)) << where;
      ASSERT_EQ(b.num_bundles(), r.num_bundles()) << where;
      for (FileId page = 0; page < 25; ++page) {
        const auto got = b.bundle_of(page);
        ASSERT_EQ(std::vector<FileId>(got.begin(), got.end()),
                  r.bundle_of(page))
            << where << " page " << page;
        for (const FileId obj : r.bundle_of(page))
          ASSERT_TRUE(b.in_bundle(page, obj)) << where;
        ASSERT_FALSE(b.in_bundle(page, 99)) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Popularity fuzz.

TEST(FlatEquivalence, PopularityMatchesNestedMaps) {
  for (const std::uint64_t seed : {51u, 52u, 53u}) {
    util::Rng rng(seed);
    const sim::SimTime halflife = seed == 52 ? 0 : sim::sec(30.0);
    PopularityTracker t(halflife);
    ref::Popularity r(halflife);
    sim::SimTime now = 0;
    std::vector<RankEntry> top;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(100);
      // Mostly forward in time; now and then a query from the past, which
      // top_rank_table must answer by a full sort.
      if (rng.below(8) == 0)
        now = std::max<sim::SimTime>(0, now - sim::sec(5.0));
      else
        now += static_cast<sim::SimTime>(rng.below(sim::sec(3.0)));
      if (op < 15) {
        std::vector<trace::Request> reqs(rng.below(12));
        for (auto& req : reqs) req.file = static_cast<FileId>(rng.below(60));
        t.seed(reqs);
        r.seed(reqs);
      } else if (op < 60) {
        const auto file = static_cast<FileId>(rng.below(60));
        t.record_hit(file, now);
        r.record_hit(file, now);
      } else if (op < 66) {
        // The smallest keep drops every entry below a value of 5.
        const double keeps[] = {0.5, 0.9, 2e-7};
        const double keep = keeps[rng.below(3)];
        t.age(keep);
        r.age(keep);
      } else if (op < 72) {
        std::stringstream text(saved(t));
        PopularityTracker fresh(halflife);
        fresh.record_hit(3, now);
        ASSERT_TRUE(fresh.load(text));
        t = std::move(fresh);
      } else if (op < 78) {
        PopularityTracker copy = t;
        const std::string before = saved(copy);
        t.record_hit(7, now);
        ASSERT_EQ(saved(copy), before);
        t = copy;
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ASSERT_EQ(saved(t), saved(r)) << where;
      ASSERT_EQ(t.num_files(), r.num_files()) << where;
      const auto table = r.rank_table(now);
      ASSERT_EQ(show(t.rank_table(now)), show(table)) << where;
      for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                  std::size_t{20}, std::size_t{100}}) {
        t.top_rank_table(now, k, top);
        const std::vector<RankEntry> want(
            table.begin(),
            table.begin() +
                static_cast<std::ptrdiff_t>(std::min(k, table.size())));
        ASSERT_EQ(show(top), show(want)) << where << " k " << k;
      }
      for (FileId file = 0; file < 62; ++file)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(t.rank(file, now)),
                  std::bit_cast<std::uint64_t>(r.rank(file, now)))
            << where;
    }
  }
}

}  // namespace
}  // namespace prord::logmining
