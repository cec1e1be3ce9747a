// Pinned fingerprints of trace generation and workload construction.
//
// Each case hashes (64-bit FNV-1a) every field of a generated trace and of
// the workload built from it, so any change to what the generator emits,
// how URLs are interned or how requests are classified shows up as a
// changed number. The values were recorded before the trace pipeline was
// optimised and must stay identical: speed-ups to this layer may not change
// a single byte of its output. Like the fig7/8/9 golden tables they depend
// on the platform's libm, so a new toolchain may need them re-recorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/clf.h"
#include "trace/generator.h"
#include "trace/models.h"
#include "trace/workload.h"

namespace prord::trace {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_records(const std::vector<LogRecord>& records) {
  Fnv1a h;
  h.u64(records.size());
  for (const LogRecord& r : records) {
    h.u64(static_cast<std::uint64_t>(r.time));
    h.u64(r.client);
    h.str(r.url);
    h.u64(r.bytes);
    h.u64(r.status);
  }
  return h.value();
}

std::uint64_t hash_workload(const Workload& w) {
  Fnv1a h;
  h.u64(w.files.count());
  for (FileId id = 0; id < w.files.count(); ++id) {
    h.u64(id);
    h.u64(w.files.lookup(w.files.url(id)));
    h.str(w.files.url(id));
    h.u64(w.files.size_bytes(id));
  }
  h.u64(w.requests.size());
  for (const Request& r : w.requests) {
    h.u64(static_cast<std::uint64_t>(r.at));
    h.u64(r.client);
    h.u64(r.conn);
    h.u64(r.file);
    h.u64(r.bytes);
    h.u64(r.is_embedded);
    h.u64(r.is_dynamic);
    h.u64(r.parent_page);
    h.u64(r.starts_connection);
  }
  h.u64(w.num_connections);
  h.u64(w.num_clients);
  h.u64(w.num_main_pages);
  return h.value();
}

struct Pinned {
  std::uint64_t records;
  std::uint64_t workload;
  /// The workload of a second trace (seed + 1000, the experiments' training
  /// offset) built on the first one's file table.
  std::uint64_t seeded;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_pinned(const WorkloadSpec& spec, const Pinned& pinned) {
  const SiteModel site = build_site(spec.site);
  const GeneratedTrace trace = generate_trace(site, spec.gen);
  const Workload w = build_workload(trace.records);
  TraceGenParams other = spec.gen;
  other.seed += 1000;
  const GeneratedTrace second = generate_trace(site, other);
  const Workload seeded = build_workload(second.records, {}, w.files);
  EXPECT_EQ(hex(hash_records(trace.records)), hex(pinned.records));
  EXPECT_EQ(hex(hash_workload(w)), hex(pinned.workload));
  EXPECT_EQ(hex(hash_workload(seeded)), hex(pinned.seeded));
}

TEST(TraceFingerprint, CsDept) {
  expect_pinned(cs_dept_spec(),
                {0x6676a245f92a1216, 0x498b5cb01d147d85, 0x2c50650441bee51a});
}

TEST(TraceFingerprint, Synthetic) {
  expect_pinned(synthetic_spec(),
                {0xbbe2f9a2c8bd498c, 0xa0bb6bff2a86a9eb, 0x2f33ce40a7088eae});
}

TEST(TraceFingerprint, WorldCupTwoPercent) {
  expect_pinned(world_cup_spec(0.02),
                {0xfff1bd7e93298cad, 0x22c4b14160cccab1, 0xb8a348521f4dc8b0});
}

// The benchmark's drift cell: 8 phases, 60% rotation, 3x phase flash for
// the first 200 s of every phase.
TEST(TraceFingerprint, Drift) {
  WorkloadSpec spec = synthetic_spec();
  spec.gen.drift = {.phases = 8, .rotation = 0.6, .flash_multiplier = 3.0,
                    .flash_duration_sec = 200.0};
  expect_pinned(spec,
                {0xcda30ecd97ca7fca, 0xdd311fbae29cf1a9, 0x91747e5155ed5fdc});
}

// Thinned arrivals (day/night swing plus one flash crowd) on a site with
// dynamic pages, so the dynamic classification is covered too.
TEST(TraceFingerprint, DiurnalFlashWithDynamicPages) {
  WorkloadSpec spec = synthetic_spec(11);
  spec.site.dynamic_page_fraction = 0.15;
  spec.gen.target_requests = 12'000;
  spec.gen.diurnal_amplitude = 0.6;
  spec.gen.diurnal_period_sec = 1800.0;
  spec.gen.flash_multiplier = 4.0;
  spec.gen.flash_start_sec = 2400.0;
  spec.gen.flash_duration_sec = 300.0;
  expect_pinned(spec,
                {0x49b28e2ac0a86813, 0xeb9d58c9bb80e225, 0x34b70b98aa2c3326});
}

TEST(TraceFingerprint, ClfSampleLog) {
  std::ifstream in(PRORD_SOURCE_DIR "/examples/logs/sample_access.log");
  ASSERT_TRUE(in) << "examples/logs/sample_access.log not found";
  ClfParser parser;
  std::vector<LogRecord> records = parser.parse_stream(in);
  EXPECT_EQ(hex(hash_records(records)), "0x0e9dacda4f4a1489");
  std::stable_sort(records.begin(), records.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.time < b.time;
                   });
  WorkloadOptions options;
  options.keep_errors = true;
  EXPECT_EQ(hex(hash_workload(build_workload(records))), "0x8d1a6e85caf75d79");
  EXPECT_EQ(hex(hash_workload(build_workload(records, options))),
            "0x4cab952b6a49fae8");
}

}  // namespace
}  // namespace prord::trace
