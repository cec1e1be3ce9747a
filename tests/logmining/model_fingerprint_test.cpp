// Byte fingerprints of MiningModel::save() on the two paper-cell training
// traces.
//
// save() writes every counter the predictor, bundle miner and popularity
// tracker hold, in a canonical order, so a hash of its text pins the
// whole mined state. The offline pass and one warm-started re-mine (clone,
// bundle and popularity carry-over, then the adaptation loop's aging) are
// pinned for each predictor kind; a storage change that keeps the text
// byte for byte keeps these hashes. The candidate-path predictor stores the
// Markov hit table and nothing else, so its model text equals the Markov
// model's but for the kind line.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "logmining/mining_model.h"
#include "trace/generator.h"
#include "trace/models.h"
#include "trace/workload.h"

namespace prord::logmining {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string text(const MiningModel& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

/// The text without its "kind <n> ..." line.
std::string without_kind_line(const std::string& text) {
  const std::size_t at = text.find("\nkind ");
  return text.substr(0, at) + text.substr(text.find('\n', at + 1));
}

struct Fingerprints {
  std::uint64_t offline;
  std::uint64_t remined;
  std::string offline_text;
  std::string remined_text;
};

/// Mines the spec's training trace (the experiment's seed offset 1000),
/// then warm-starts a re-mine from it over the evaluation trace and ages
/// the result as the adaptation loop does.
Fingerprints mine(const trace::WorkloadSpec& spec, PredictorKind kind) {
  const auto site = trace::build_site(spec.site);
  auto train_gen = spec.gen;
  train_gen.seed += 1000;
  const auto train =
      trace::build_workload(trace::generate_trace(site, train_gen).records);
  const auto eval = trace::build_workload(
      trace::generate_trace(site, spec.gen).records, {}, train.files);

  MiningConfig config;
  config.predictor = kind;
  const MiningModel offline(train.requests, config);
  const auto sessions = build_sessions(eval.requests, config.session);
  MiningModel remined(sessions, eval.requests, config, &offline);
  remined.predictor().age(0.5, /*min_count=*/1);
  remined.popularity().age(0.5);
  const std::string offline_text = text(offline);
  const std::string remined_text = text(remined);
  return {fnv1a(offline_text), fnv1a(remined_text),
          without_kind_line(offline_text), without_kind_line(remined_text)};
}

TEST(ModelFingerprint, CsDeptTrainingTrace) {
  const auto spec = trace::cs_dept_spec();
  const auto cp = mine(spec, PredictorKind::kCandidatePath);
  EXPECT_EQ(cp.offline, 0xaf43d5c615858c93ULL);
  EXPECT_EQ(cp.remined, 0x0ec2a3e1cd0ad42dULL);
  const auto markov = mine(spec, PredictorKind::kMarkov);
  EXPECT_EQ(markov.offline, 0x2ba5b5a1af954de8ULL);
  EXPECT_EQ(markov.remined, 0x29a8014484aed5c4ULL);
  EXPECT_EQ(cp.offline_text, markov.offline_text);
  EXPECT_EQ(cp.remined_text, markov.remined_text);
  const auto dg = mine(spec, PredictorKind::kDependencyGraph);
  EXPECT_EQ(dg.offline, 0x676b4ae0a70679ddULL);
  EXPECT_EQ(dg.remined, 0xdad0248884eb49c1ULL);
}

TEST(ModelFingerprint, SyntheticTrainingTrace) {
  const auto spec = trace::synthetic_spec();
  const auto cp = mine(spec, PredictorKind::kCandidatePath);
  EXPECT_EQ(cp.offline, 0x0ade0b08ff2afba1ULL);
  EXPECT_EQ(cp.remined, 0x0294412ded35c39dULL);
  const auto markov = mine(spec, PredictorKind::kMarkov);
  EXPECT_EQ(markov.offline, 0x5594062a52c65982ULL);
  EXPECT_EQ(markov.remined, 0x19ebbdd564c06228ULL);
  EXPECT_EQ(cp.offline_text, markov.offline_text);
  EXPECT_EQ(cp.remined_text, markov.remined_text);
  const auto dg = mine(spec, PredictorKind::kDependencyGraph);
  EXPECT_EQ(dg.offline, 0x57769e02bf082c0cULL);
  EXPECT_EQ(dg.remined, 0xa4b395938d9b6e41ULL);
}

}  // namespace
}  // namespace prord::logmining
