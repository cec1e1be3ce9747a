// Next-page predictors mined from navigation sessions.
//
// Three predictors from the paper's design space:
//
//  * MarkovPredictor — j-order Prediction-by-Partial-Match [26]: exact
//    preceding contexts of length j..1 with longest-match back-off. This is
//    the shape of PRORD's Fig. 3 "n-order dependency graph": the edge
//    A,B -> C carries the confidence that a user whose last pages were A,B
//    continues to C.
//  * DependencyGraphPredictor — Padmanabhan/Mogul dependency graph [19]:
//    order-1 contexts with a lookahead window (B is counted after A if it
//    appears within the next w views, not only immediately next).
//  * CandidatePathPredictor — the paper's Algorithms 1 & 2: a page is a
//    candidate only if the current page links to it directly, and
//    per-sequence hit counters select the prefetch page whose confidence
//    clears a threshold. The links are the transitions the log shows, so
//    this is the Markov table with one rule: a context never predicts its
//    own last page.
//
// All predictors train on sessions and answer: given the user's recent
// page sequence, which page comes next and with what confidence?
//
// The Markov table (and so the candidate-path predictor) keeps its counters
// in flat storage (logmining/flat_index.h), so clone() is a few vector
// copies: the adaptation loop clones the serving predictor at every
// re-mine.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "logmining/flat_index.h"
#include "logmining/session.h"
#include "trace/log_record.h"

namespace prord::logmining {

struct Prediction {
  trace::FileId page = trace::kInvalidFile;
  double confidence = 0.0;   ///< P(next == page | context)
  unsigned matched_order = 0;  ///< context length that produced the estimate
};

/// Common interface so PRORD and the benches can swap predictors.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Trains on one complete session (offline mining pass).
  virtual void observe(std::span<const trace::FileId> pages) = 0;

  /// Online update: `page` followed the given context (dynamic tracking).
  virtual void observe_transition(std::span<const trace::FileId> context,
                                  trace::FileId page) = 0;

  /// Best next-page guess for a context (most recent page last), or
  /// nullopt if nothing clears `min_confidence`: predict_all(context, 1)'s
  /// row when it clears. One scan, no allocation (routing calls this on
  /// every main-page request).
  virtual std::optional<Prediction> predict(
      std::span<const trace::FileId> context, double min_confidence) const = 0;

  /// Top-k candidates, highest confidence first.
  virtual std::vector<Prediction> predict_all(
      std::span<const trace::FileId> context, std::size_t k) const = 0;

  /// Number of stored (context -> successor) entries: the memory footprint
  /// the paper worries about in Section 4.1.1(i). O(1): each predictor
  /// keeps a running count that every insert, aging drop and load updates.
  virtual std::size_t num_entries() const = 0;

  /// Serializes the trained state (text format). The offline mining pass
  /// runs in a separate process from the distributor; save/load is the
  /// hand-off. A loaded predictor continues answering and learning exactly
  /// where the saved one stopped.
  virtual void save(std::ostream& out) const = 0;

  /// Restores state saved by the same predictor kind and configuration.
  /// Returns false (state unspecified) on a malformed or mismatched
  /// stream.
  virtual bool load(std::istream& in) = 0;

  /// Ages the counters: multiplies every count by `keep_fraction` in
  /// (0, 1], flooring, then clamps to at least `min_count`. With the
  /// default min_count of 0, entries that reach zero are dropped —
  /// long-running deployments call this periodically so the model tracks
  /// the current navigation behaviour instead of the site's whole
  /// history. The online adaptation loop passes min_count = 1: decay
  /// re-ranks successors toward recent traffic, but evicting a context
  /// outright would shrink prediction coverage, which costs more accuracy
  /// than a stale rank.
  virtual void age(double keep_fraction, std::uint64_t min_count = 0) = 0;

  /// Deep copy with identical trained state and configuration. The online
  /// adaptation loop warm-starts each re-mined model from the serving
  /// predictor instead of retraining from a thin window.
  virtual std::unique_ptr<Predictor> clone() const = 0;
};

/// j-order PPM with longest-context-first back-off.
class MarkovPredictor final : public Predictor {
 public:
  explicit MarkovPredictor(unsigned order);

  void observe(std::span<const trace::FileId> pages) override;
  void observe_transition(std::span<const trace::FileId> context,
                          trace::FileId page) override;
  std::optional<Prediction> predict(std::span<const trace::FileId> context,
                                    double min_confidence) const override;
  std::vector<Prediction> predict_all(std::span<const trace::FileId> context,
                                      std::size_t k) const override;
  std::size_t num_entries() const override { return arena_.size(); }
  void save(std::ostream& out) const override;
  bool load(std::istream& in) override;
  void age(double keep_fraction, std::uint64_t min_count = 0) override;
  std::unique_ptr<Predictor> clone() const override {
    return std::make_unique<MarkovPredictor>(*this);
  }

  unsigned order() const noexcept { return order_; }

 private:
  friend class CandidatePathPredictor;

  /// One stored context. Its successors are chained through arena_ from
  /// `head`, each with its count; `total` is their sum (as trained or
  /// loaded).
  struct Context {
    std::uint64_t key = 0;  ///< context_key of the page sequence
    std::uint64_t total = 0;
    std::uint32_t head = kNoSlot;
    std::uint32_t level = 0;  ///< context length - 1
  };

  static std::uint64_t context_key(std::span<const trace::FileId> ctx);
  void count(std::span<const trace::FileId> ctx, trace::FileId next);
  /// contexts_ position of the context, stored empty if new.
  std::uint32_t add_context(std::uint32_t level, std::uint64_t key);
  /// Adds `n` to the context's count for `page`; the context's total is
  /// the caller's to keep.
  void add_successor(Context& c, trace::FileId page, std::uint64_t n);
  void rebuild_index();

  /// Longest-context-first back-off: the longest suffix of `context` (up
  /// to order_ pages) stored with a nonzero total, or nullptr.
  const Context* match(std::span<const trace::FileId> context) const;
  /// predict() over the matched context's successors other than `skip`.
  std::optional<Prediction> best(std::span<const trace::FileId> context,
                                 double min_confidence,
                                 std::optional<trace::FileId> skip) const;
  static Prediction prediction(const Context& c, const ArenaEntry& e) {
    return Prediction{e.id,
                      static_cast<double>(e.count) /
                          static_cast<double>(c.total),
                      c.level + 1};
  }

  unsigned order_;
  std::vector<Context> contexts_;
  /// One index per context length (index 0 = order-1 contexts): context
  /// key -> contexts_ position.
  std::vector<FlatIndex<std::uint64_t>> index_;
  /// Successors of every context: one record per stored entry.
  std::vector<ArenaEntry> arena_;
};

/// Padmanabhan/Mogul dependency graph with lookahead window.
class DependencyGraphPredictor final : public Predictor {
 public:
  explicit DependencyGraphPredictor(unsigned lookahead_window);

  void observe(std::span<const trace::FileId> pages) override;
  void observe_transition(std::span<const trace::FileId> context,
                          trace::FileId page) override;
  std::optional<Prediction> predict(std::span<const trace::FileId> context,
                                    double min_confidence) const override;
  std::vector<Prediction> predict_all(std::span<const trace::FileId> context,
                                      std::size_t k) const override;
  std::size_t num_entries() const override { return entries_; }
  void save(std::ostream& out) const override;
  bool load(std::istream& in) override;
  void age(double keep_fraction, std::uint64_t min_count = 0) override;
  std::unique_ptr<Predictor> clone() const override {
    return std::make_unique<DependencyGraphPredictor>(*this);
  }

  unsigned window() const noexcept { return window_; }

 private:
  struct Node {
    std::uint64_t occurrences = 0;
    std::unordered_map<trace::FileId, std::uint64_t> arcs;
  };
  void add_arc(Node& node, trace::FileId to);
  /// The last context page's node when it has occurrences, or nullptr.
  const Node* node_of(std::span<const trace::FileId> context) const;
  static Prediction prediction(const Node& node, trace::FileId page,
                               std::uint64_t cnt);

  std::unordered_map<trace::FileId, Node> nodes_;
  unsigned window_;
  std::size_t entries_ = 0;  ///< sum of arcs.size() over every node
};

/// The paper's own scheme (Algorithms 1 & 2).
///
/// Algorithm 1 bounds the context space (otherwise O(l^(n+1))) by admitting
/// only pages directly linked from the current page, and Algorithm 2's hit
/// table (hit_candidate_path[sequence][page]) counts how often each
/// candidate actually followed a sequence. The links are mined from the
/// same first-order transitions the hit table counts, standing in for the
/// site's hyperlink map the authors read from the server, and a page does
/// not link to itself. So the linked candidates of a sequence are its
/// observed successors other than its last page: the predictor is a Markov
/// table whose answers skip the current page, and everything but
/// predict/predict_all forwards to that table.
class CandidatePathPredictor final : public Predictor {
 public:
  explicit CandidatePathPredictor(unsigned order) : counts_(order) {}

  void observe(std::span<const trace::FileId> pages) override {
    counts_.observe(pages);
  }
  void observe_transition(std::span<const trace::FileId> context,
                          trace::FileId page) override {
    counts_.observe_transition(context, page);
  }
  std::optional<Prediction> predict(std::span<const trace::FileId> context,
                                    double min_confidence) const override;
  std::vector<Prediction> predict_all(std::span<const trace::FileId> context,
                                      std::size_t k) const override;
  std::size_t num_entries() const override { return counts_.num_entries(); }
  /// The hit table's text, exactly MarkovPredictor's; MiningModel's kind
  /// line tells the two apart.
  void save(std::ostream& out) const override { counts_.save(out); }
  bool load(std::istream& in) override { return counts_.load(in); }
  void age(double keep_fraction, std::uint64_t min_count = 0) override {
    counts_.age(keep_fraction, min_count);
  }
  std::unique_ptr<Predictor> clone() const override {
    return std::make_unique<CandidatePathPredictor>(*this);
  }

 private:
  MarkovPredictor counts_;
};

}  // namespace prord::logmining
