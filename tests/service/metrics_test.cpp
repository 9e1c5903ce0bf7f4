#include "service/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rcfg::service {
namespace {

TEST(Metrics, CounterCountsAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 4000u);
}

TEST(Metrics, GaugeTracksLevelAndHighWater) {
  Gauge g;
  g.add(3);
  g.add(4);
  g.add(-5);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);
  g.add(10);
  EXPECT_EQ(g.max(), 12);
}

TEST(Metrics, HistogramBucketsAndSummary) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // bucket le=1
  h.record(1.0);    // le=1 (inclusive upper bound)
  h.record(7.0);    // le=10
  h.record(1000);   // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);

  const json::Value j = h.to_json();
  EXPECT_EQ(j.get_int("count"), 4);
  const auto& buckets = j.find("buckets")->as_array();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + inf
  EXPECT_EQ(buckets[0].get_int("count"), 2);
  EXPECT_EQ(buckets[1].get_int("count"), 1);
  EXPECT_EQ(buckets[2].get_int("count"), 0);
  EXPECT_EQ(buckets[3].get_string("le"), "inf");
  EXPECT_EQ(buckets[3].get_int("count"), 1);
}

TEST(Metrics, EmptyHistogramIsWellFormed) {
  const Histogram h = Histogram::latency_ms();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  const json::Value j = h.to_json();
  EXPECT_EQ(j.get_int("count"), 0);
  EXPECT_DOUBLE_EQ(j.find("mean")->as_double(), 0.0);
}

TEST(Metrics, LatencyBucketsReachPaperScaleOpens) {
  // A paper-scale `open` or a deep sweep takes minutes: it must land in a
  // finite bucket, not in +inf.
  Histogram h = Histogram::latency_ms();
  h.record(100000);
  const json::Value j = h.to_json();
  EXPECT_EQ(j.get_int("count"), 1);
  const auto& buckets = j.find("buckets")->as_array();
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.back().get_string("le"), "inf");
  EXPECT_EQ(buckets.back().get_int("count"), 0);
}

TEST(Metrics, ServiceMetricsJsonShape) {
  ServiceMetrics m;
  m.requests_total.inc(5);
  m.requests(Verb::kPropose).inc(3);
  m.coalesced_batches.inc();
  m.generate_ms.record(1.5);
  m.queue_depth.add(2);
  m.queue_depth.add(-2);

  const json::Value j = m.to_json();
  EXPECT_EQ(j.find("requests")->get_int("total"), 5);
  EXPECT_EQ(j.find("requests")->get_int("propose"), 3);
  EXPECT_EQ(j.find("batching")->get_int("coalesced_batches"), 1);
  EXPECT_EQ(j.find("latency")->find("generate_ms")->get_int("count"), 1);
  EXPECT_EQ(j.find("load")->get_int("queue_depth"), 0);
  EXPECT_EQ(j.find("load")->get_int("queue_depth_max"), 2);
  // The dump parses back (the stats verb ships exactly this).
  EXPECT_EQ(json::Value::parse(j.dump()), j);
}

TEST(Metrics, FreshMetricsDumpHasNoNonFiniteTokens) {
  // Regression companion to the empty-histogram mean guard: a brand-new
  // ServiceMetrics has 14 empty histograms (count 0, min seeded at +inf);
  // without the guards their mean/min would dump as `nan`/`inf` and the
  // very first `stats` response of a fresh daemon would be invalid JSON.
  const ServiceMetrics m;
  const std::string text = m.to_json().dump();
  EXPECT_EQ(text.find("nan"), std::string::npos);
  // "inf" appears only as the quoted overflow-bucket label, never bare.
  std::size_t pos = 0;
  while ((pos = text.find("inf", pos)) != std::string::npos) {
    ASSERT_GT(pos, 0u);
    EXPECT_EQ(text[pos - 1], '"') << text.substr(pos - 10, 20);
    pos += 3;
  }
  EXPECT_NO_THROW(json::Value::parse(text));
}

TEST(Metrics, ReplicaAndLoadSectionsExported) {
  ServiceMetrics m;
  m.replica_queries.inc(4);
  m.replica_deltas.inc(2);
  m.replica_resyncs.inc();
  m.replica_squashes.inc(2);
  m.replicas_open.add(2);
  m.replica_catchup_ms.record(0.2);
  m.rejected_total.inc(3);
  m.admission_denied.inc(2);

  const json::Value j = m.to_json();
  const json::Value* replicas = j.find("replicas");
  ASSERT_NE(replicas, nullptr);
  EXPECT_EQ(replicas->get_int("queries"), 4);
  EXPECT_EQ(replicas->get_int("deltas"), 2);
  EXPECT_EQ(replicas->get_int("resyncs"), 1);
  EXPECT_EQ(replicas->get_int("squashes"), 2);
  EXPECT_EQ(replicas->get_int("open"), 2);
  EXPECT_EQ(replicas->get_int("open_max"), 2);
  EXPECT_EQ(replicas->find("catchup_ms")->get_int("count"), 1);
  EXPECT_EQ(j.find("load")->get_int("rejected"), 3);
  EXPECT_EQ(j.find("load")->get_int("admission_denied"), 2);
}

}  // namespace
}  // namespace rcfg::service
