// MetricBatch unit contract: interning, export-set stability (a series
// registered but never hit still exports), flush-order/value equivalence
// with per-add MetricRegistry updates, and the tail-flush property — pending
// deltas must be zero after the final flush and the registry must carry
// every count, or play_workload's end-of-run flush has regressed.
#include <gtest/gtest.h>

#include "obs/exporters.h"
#include "obs/metric_batch.h"

namespace prord::obs {
namespace {

TEST(MetricBatch, RegistrationUpsertsSeriesImmediately) {
  MetricBatch batch;
  batch.counter("prord_test_total", {{"policy", "prord"}}, "help text");
  // Never incremented — the series must still exist, at zero, with help.
  const Metric* m =
      batch.registry().find("prord_test_total", {{"policy", "prord"}});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 0.0);
  EXPECT_EQ(batch.registry().help().at("prord_test_total"), "help text");
}

TEST(MetricBatch, FlushFoldsPendingIntoRegistry) {
  MetricBatch batch;
  const auto a = batch.counter("prord_a_total", {});
  const auto b = batch.counter("prord_b_total", {{"via", "sticky"}});

  for (int i = 0; i < 5; ++i) batch.add(a);
  batch.add(b, 3.0);
  // Pre-flush: deltas are pending, registry still shows the upsert zeros.
  EXPECT_EQ(batch.pending_total(), 8.0);
  EXPECT_EQ(batch.registry().find("prord_a_total")->value, 0.0);

  batch.flush();
  EXPECT_EQ(batch.pending_total(), 0.0);
  EXPECT_EQ(batch.flushes(), 1u);
  EXPECT_EQ(batch.registry().find("prord_a_total")->value, 5.0);
  EXPECT_EQ(
      batch.registry().find("prord_b_total", {{"via", "sticky"}})->value,
      3.0);

  // Tail-flush regression shape: counts landing after an epoch flush must
  // survive a final flush (this is play_workload's end-of-run flush).
  batch.add(a, 2.0);
  EXPECT_EQ(batch.pending_total(), 2.0);
  batch.flush();
  EXPECT_EQ(batch.pending_total(), 0.0);
  EXPECT_EQ(batch.registry().find("prord_a_total")->value, 7.0);
}

TEST(MetricBatch, BatchedExportMatchesWriteThroughByteForByte) {
  // The same add stream through a batch with epoch flushes and straight
  // into a registry via counter_add, one call per add; the Prometheus
  // rendering of the two registries must be byte-identical (the
  // experiment-level version of this is
  // ObsDeterminism.BatchedMetricsExportIdenticalBytes).
  MetricBatch batch;
  MetricRegistry direct;
  const Labels policy{{"policy", "prord"}};
  const Labels routed_labels{{"policy", "prord"}, {"via", "dispatcher"}};
  const auto completed = batch.counter("prord_requests_completed_total",
                                       policy, "Requests served to completion");
  direct.set_help("prord_requests_completed_total",
                  "Requests served to completion");
  direct.counter_add("prord_requests_completed_total", policy, 0.0);
  const auto routed =
      batch.counter("prord_requests_routed_total", routed_labels);
  direct.counter_add("prord_requests_routed_total", routed_labels, 0.0);
  batch.counter("prord_failed_total", {});  // registered, never hit
  direct.counter_add("prord_failed_total", {}, 0.0);

  for (int i = 0; i < 1000; ++i) {
    batch.add(completed);
    direct.counter_add("prord_requests_completed_total", policy, 1.0);
    if (i % 3 == 0) {
      batch.add(routed);
      direct.counter_add("prord_requests_routed_total", routed_labels, 1.0);
    }
    if (i % 250 == 0) batch.flush();  // epoch flushes mid-stream
  }
  batch.flush();  // tail flush

  EXPECT_EQ(batch.adds(), 1334u);
  EXPECT_EQ(to_prometheus(batch.registry()), to_prometheus(direct));
}

TEST(MetricBatch, FlushIsIdempotentWhenNothingIsPending) {
  MetricBatch batch;
  const auto h = batch.counter("prord_x_total", {});
  batch.add(h);
  batch.flush();
  const std::string before = to_prometheus(batch.registry());
  batch.flush();
  batch.flush();
  EXPECT_EQ(to_prometheus(batch.registry()), before);
}

}  // namespace
}  // namespace prord::obs
