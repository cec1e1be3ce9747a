// BENCH_*.json contract test: renders a PerfReport the way bench_perf
// does, parses it back, and validates it against the checked-in
// docs/perf_schema.json with a mini JSON-Schema validator covering
// exactly the subset the schema uses (type, required, enum, minItems,
// minimum, properties/items recursion). Semantic rules the schema cannot
// express — monotonic scenario timestamps, non-zero throughput — are
// asserted here too, so a CI artifact that validates is actually usable
// for cross-commit comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/perf_report.h"
#include "util/json.h"

namespace prord::core {
namespace {

using util::JsonValue;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

JsonValue load_schema() {
  const auto path = std::filesystem::path(__FILE__)
                        .parent_path()  // tests/core
                        .parent_path()  // tests
                        .parent_path() /
                    "docs" / "perf_schema.json";
  return util::json_parse(read_file(path));
}

// ---------------------------------------------------------------------------
// Mini validator for the schema subset docs/perf_schema.json uses.
// ---------------------------------------------------------------------------

void validate(const JsonValue& value, const JsonValue& schema,
              const std::string& where, std::vector<std::string>& errors) {
  if (const JsonValue* type = schema.find("type")) {
    const std::string& t = type->as_string();
    bool ok = true;
    if (t == "object") ok = value.is_object();
    else if (t == "array") ok = value.is_array();
    else if (t == "string") ok = value.is_string();
    else if (t == "number") ok = value.is_number();
    else if (t == "boolean") ok = value.is_bool();
    else if (t == "integer")
      ok = value.is_number() &&
           value.as_number() == std::floor(value.as_number());
    if (!ok) {
      errors.push_back(where + ": expected " + t);
      return;
    }
  }
  if (const JsonValue* en = schema.find("enum")) {
    bool hit = false;
    for (const JsonValue& option : en->items())
      if (value.is_string() && option.is_string() &&
          value.as_string() == option.as_string())
        hit = true;
    if (!hit) errors.push_back(where + ": value not in enum");
  }
  if (const JsonValue* min = schema.find("minimum")) {
    if (value.is_number() && value.as_number() < min->as_number())
      errors.push_back(where + ": below minimum");
  }
  if (const JsonValue* required = schema.find("required")) {
    for (const JsonValue& key : required->items())
      if (!value.find(key.as_string()))
        errors.push_back(where + ": missing required key '" +
                         key.as_string() + "'");
  }
  if (const JsonValue* props = schema.find("properties")) {
    for (const auto& [key, prop_schema] : props->members())
      if (const JsonValue* member = value.find(key))
        validate(*member, prop_schema, where + "." + key, errors);
  }
  if (value.is_array()) {
    if (const JsonValue* min_items = schema.find("minItems"))
      if (value.items().size() <
          static_cast<std::size_t>(min_items->as_number()))
        errors.push_back(where + ": fewer than minItems entries");
    if (const JsonValue* items = schema.find("items")) {
      std::size_t i = 0;
      for (const JsonValue& item : value.items())
        validate(item, *items, where + "[" + std::to_string(i++) + "]",
                 errors);
    }
  }
}

std::vector<std::string> validate_report(const JsonValue& doc) {
  std::vector<std::string> errors;
  validate(doc, load_schema(), "$", errors);
  return errors;
}

/// A sim report using every shape the schema admits: an optimized row,
/// a baseline row (the shard sweep's 1-shard cell, and sim reports
/// written before the allocation gate), and a named ratio.
PerfReport sample_report() {
  PerfReport report;
  report.suite = "sim";
  report.git_sha = "0123456789abcdef0123456789abcdef01234567";
  report.generated_unix_ms = 1754650000000ull;

  PerfScenario opt;
  opt.name = "fig8_memory_sweep";
  opt.mode = "optimized";
  opt.t_start_ms = 1754649990000ull;
  opt.t_end_ms = 1754649993000ull;
  opt.wall_seconds = 3.0;
  opt.sim_wall_seconds = 2.4;
  opt.sim_events = 6'000'000;
  opt.events_per_sec = 2'000'000.0;
  opt.requests = 120'000;
  opt.requests_per_sec = 18'500.0;
  opt.p50_response_ms = 1.2;
  opt.p99_response_ms = 9.8;
  opt.allocations = 480'000;
  opt.allocations_per_event = 0.08;

  PerfScenario base = opt;
  base.mode = "baseline";
  base.t_start_ms = opt.t_end_ms;
  base.t_end_ms = opt.t_end_ms + 7000;
  base.wall_seconds = 7.0;
  base.events_per_sec = 857'142.0;
  base.allocations = 19'000'000;
  base.allocations_per_event = 3.1;

  report.scenarios = {opt, base};
  report.speedups = {{"fig8_memory_sweep_events_per_sec_speedup", 2.33}};
  return report;
}

// Semantic checks bench_perf's consumers rely on, mirrored from the
// schema description.
void check_semantics(const JsonValue& doc) {
  std::uint64_t prev_start = 0;
  for (const JsonValue& s : doc.find("scenarios")->items()) {
    const auto start =
        static_cast<std::uint64_t>(s.find("t_start_ms")->as_number());
    const auto end =
        static_cast<std::uint64_t>(s.find("t_end_ms")->as_number());
    EXPECT_GE(start, prev_start) << "scenario list not time-ordered";
    EXPECT_GE(end, start) << "scenario ends before it starts";
    prev_start = start;
    EXPECT_GT(s.find("requests_per_sec")->as_number(), 0.0)
        << "scenario carries zero throughput";
  }
}

TEST(PerfReportSchema, RenderedReportValidates) {
  const JsonValue doc =
      util::json_parse(render_perf_report(sample_report()));
  const auto errors = validate_report(doc);
  EXPECT_TRUE(errors.empty()) << "schema violations:\n"
                              << [&] {
                                   std::string all;
                                   for (const auto& e : errors)
                                     all += "  " + e + "\n";
                                   return all;
                                 }();
  check_semantics(doc);
  EXPECT_EQ(static_cast<int>(doc.find("schema_version")->as_number()),
            kPerfSchemaVersion);
}

TEST(PerfReportSchema, RoundTripPreservesValues) {
  const PerfReport report = sample_report();
  const JsonValue doc = util::json_parse(render_perf_report(report));
  EXPECT_EQ(doc.find("suite")->as_string(), "sim");
  EXPECT_EQ(doc.find("git_sha")->as_string(), report.git_sha);
  // Integral fields survive bit-exact (the writer renders them as
  // integers, not scientific notation).
  EXPECT_EQ(static_cast<std::uint64_t>(
                doc.find("generated_unix_ms")->as_number()),
            report.generated_unix_ms);
  const JsonValue& s0 = doc.find("scenarios")->items()[0];
  EXPECT_EQ(static_cast<std::uint64_t>(s0.find("sim_events")->as_number()),
            report.scenarios[0].sim_events);
  EXPECT_DOUBLE_EQ(s0.find("p99_response_ms")->as_number(), 9.8);
  const JsonValue* speedup =
      doc.find("speedups")->find("fig8_memory_sweep_events_per_sec_speedup");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->as_number(), 2.33);
}

TEST(PerfReportSchema, ValidatorHasTeeth) {
  // Mutations a drifting emitter could produce must be caught — otherwise
  // the CI validation step is theater.
  PerfReport report = sample_report();
  report.scenarios[0].mode = "turbo";  // not in the mode enum
  JsonValue doc = util::json_parse(render_perf_report(report));
  EXPECT_FALSE(validate_report(doc).empty());

  // Empty scenario list violates minItems.
  PerfReport empty = sample_report();
  empty.scenarios.clear();
  EXPECT_FALSE(
      validate_report(util::json_parse(render_perf_report(empty))).empty());

  // A document missing a required top-level key.
  JsonValue bare = JsonValue::object();
  bare.set("schema_version", 1);
  EXPECT_FALSE(validate_report(bare).empty());
}

TEST(PerfReportSchema, ParserRejectsMalformedInput) {
  EXPECT_THROW(util::json_parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(util::json_parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(util::json_parse("[1, 2"), std::runtime_error);
}

}  // namespace
}  // namespace prord::core
