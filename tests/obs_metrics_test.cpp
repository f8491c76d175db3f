// Tests of the metrics layer: instrument semantics, registry identity and
// lookup, bucket layouts, JSON snapshot shape, and the null-safe helpers
// that make disabled observability free.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "sim/system.h"

namespace hds {
namespace {

using obs::Labels;

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndSetMax) {
  obs::Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.set_max(3);  // lower value must not win
  EXPECT_EQ(g.value(), 7);
  g.set_max(19);
  EXPECT_EQ(g.value(), 19);
  g.set(-5);  // plain set always wins
  EXPECT_EQ(g.value(), -5);
}

TEST(Histogram, PlacesValuesInInclusiveUpperBoundBuckets) {
  obs::Histogram h({1, 2, 4});
  h.observe(0);   // <= 1
  h.observe(1);   // <= 1
  h.observe(2);   // <= 2
  h.observe(3);   // <= 4
  h.observe(4);   // <= 4
  h.observe(99);  // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0 + 1 + 2 + 3 + 4 + 99);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum()) / 6.0);
}

TEST(Histogram, QuantileInterpolatesInsideTheBucket) {
  obs::Histogram h({10, 20, 40});
  for (int i = 0; i < 10; ++i) h.observe(5);  // all land in the first bucket
  // First bucket interpolates from 0 toward its bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);

  obs::Histogram h2({10, 20, 40});
  for (int i = 0; i < 5; ++i) h2.observe(5);    // bucket <=10
  for (int i = 0; i < 5; ++i) h2.observe(15);   // bucket <=20
  // Rank 0.75 lands halfway through the second bucket: 10 + 0.5 * (20-10).
  EXPECT_DOUBLE_EQ(h2.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h2.quantile(0.25), 5.0);
}

TEST(Histogram, QuantileClampsOverflowAndHandlesEmpty) {
  obs::Histogram h({10, 20, 40});
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);  // empty
  h.observe(1000);                          // overflow bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 40.0);  // clamps to the last bound
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 40.0);
}

TEST(Histogram, TailQuantilesOnSaturatedOverflowBucket) {
  // The saturated-layout edge: the overflow bucket dominates, so every tail
  // quantile that ranks into it must clamp to the last bound — never
  // extrapolate past the layout, never NaN, never fall back to 0. Pins the
  // behavior the window-QoS gauges and summarize() rely on when a latency
  // series outgrows its buckets.
  obs::Histogram h({10, 20, 40});
  for (int i = 0; i < 10; ++i) h.observe(5);       // 1% in-range
  for (int i = 0; i < 990; ++i) h.observe(10000);  // 99% overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 40.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 40.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
  // The p0.01 rank exactly exhausts the first bucket; the boundary rank
  // belongs to the lower bucket (cumulative >= rank), giving its bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 10.0);
  // Out-of-range q clamps instead of reading past the bucket array.
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 40.0);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));

  // Fully saturated: a single overflow observation at every rank.
  obs::Histogram all_over({10, 20, 40});
  for (int i = 0; i < 3; ++i) all_over.observe(1 << 20);
  const obs::HistogramSummary s = obs::summarize(all_over);
  EXPECT_DOUBLE_EQ(s.p50, 40.0);
  EXPECT_DOUBLE_EQ(s.p95, 40.0);
  EXPECT_DOUBLE_EQ(s.p99, 40.0);
  EXPECT_DOUBLE_EQ(all_over.quantile(0.0), 40.0);
}

TEST(Histogram, SummarizeDigestsCountSumAndPercentiles) {
  obs::Histogram h({10, 20, 40});
  for (int i = 0; i < 100; ++i) h.observe(5);
  const obs::HistogramSummary s = obs::summarize(h);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 500);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 5.0);
  EXPECT_DOUBLE_EQ(s.p95, 9.5);
  EXPECT_DOUBLE_EQ(s.p99, 9.9);
}

TEST(Buckets, LatencyLayoutIsPowersOfTwoPlusMidpoints) {
  const std::vector<std::int64_t>& b = obs::latency_buckets();
  EXPECT_EQ(b.front(), 1);
  EXPECT_EQ(b.back(), 1 << 20);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  for (std::int64_t v : {3, 6, 12, 24, 48, 96}) {
    EXPECT_NE(std::find(b.begin(), b.end(), v), b.end()) << "missing midpoint " << v;
  }
}

TEST(Buckets, ExpAndLinearLayouts) {
  EXPECT_EQ(obs::exp_buckets(1, 8), (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(obs::exp_buckets(1, 5), (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(obs::linear_buckets(1, 1, 4), (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(obs::time_buckets().front(), 1);
  EXPECT_EQ(obs::time_buckets().back(), 65536);
  EXPECT_EQ(obs::size_buckets().front(), 1);
  EXPECT_EQ(obs::size_buckets().back(), 64);
}

TEST(MetricsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x", {{"proc", "0"}});
  obs::Counter& b = reg.counter("x", {{"proc", "0"}});
  obs::Counter& c = reg.counter("x", {{"proc", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc(4);
  EXPECT_EQ(reg.counter_total("x"), 7u);
  EXPECT_EQ(reg.counter_total("missing"), 0u);
}

TEST(MetricsRegistry, FindWithoutCreating) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("c"), nullptr);
  reg.counter("c").inc();
  ASSERT_NE(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_counter("c")->value(), 1u);
  EXPECT_EQ(reg.find_gauge("g"), nullptr);
  reg.gauge("g").set(5);
  ASSERT_NE(reg.find_gauge("g"), nullptr);
  EXPECT_EQ(reg.find_histogram("h"), nullptr);
  reg.histogram("h", obs::size_buckets()).observe(2);
  ASSERT_NE(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.series_count(), 3u);
}

TEST(MetricsRegistry, HistogramLayoutFixedOnFirstCreation) {
  obs::MetricsRegistry reg;
  obs::Histogram& h1 = reg.histogram("lat", {1, 2});
  obs::Histogram& h2 = reg.histogram("lat", {10, 20, 30});  // layout ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<std::int64_t>{1, 2}));
}

TEST(MetricsRegistry, ToJsonCarriesEverySeries) {
  obs::MetricsRegistry reg;
  reg.counter("msgs", {{"type", "PH1"}}).inc(5);
  reg.gauge("decide_at").set(120);
  reg.histogram("quorum", {1, 2}).observe(2);
  const std::string j = reg.to_json();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"msgs\""), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"PH1\""), std::string::npos);
  EXPECT_NE(j.find("\"value\":5"), std::string::npos);
  EXPECT_NE(j.find("\"decide_at\""), std::string::npos);
  EXPECT_NE(j.find("\"le\":null"), std::string::npos);  // overflow bucket
}

TEST(NullSafeHelpers, NoOpOnNullptr) {
  obs::inc(nullptr);
  obs::inc(nullptr, 10);
  obs::set(nullptr, 1);
  obs::set_max(nullptr, 1);
  obs::observe(nullptr, 1);
  obs::Counter c;
  obs::inc(&c, 2);
  EXPECT_EQ(c.value(), 2u);
}

// End-to-end: a simulated run with a registry attached populates the
// substrate series; the same run without one works identically.
struct Chatter final : Process {
  void on_start(Env& env) override {
    env.broadcast(make_message(MsgType::kTest0, 0));
    env.set_timer(5);
  }
  void on_timer(Env&, TimerId) override {}
  void on_message(Env&, const Message&) override {}
};

TEST(MetricsRegistry, SimSystemPopulatesNetworkSeries) {
  obs::MetricsRegistry reg;
  SystemConfig cfg;
  cfg.ids = {1, 2, 3};
  cfg.timing = std::make_unique<AsyncTiming>(1, 2);
  cfg.seed = 4;
  cfg.metrics = &reg;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < 3; ++i) sys.set_process(i, std::make_unique<Chatter>());
  sys.start();
  sys.run_until(20);
  const auto stats = sys.net_stats();
  EXPECT_EQ(reg.counter_total("net_broadcasts_total"), stats.broadcasts);
  EXPECT_EQ(reg.counter_total("net_copies_delivered_total"), stats.copies_delivered);
  ASSERT_NE(reg.find_counter("net_broadcasts_total", {{"type", "TEST0"}}), nullptr);
  EXPECT_EQ(reg.find_counter("net_broadcasts_total", {{"type", "TEST0"}})->value(), 3u);
  ASSERT_NE(reg.find_counter("sim_timer_fires_total"), nullptr);
  EXPECT_GT(reg.find_counter("sim_timer_fires_total")->value(), 0u);
  const obs::Histogram* lat = reg.find_histogram("net_delivery_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), stats.copies_delivered);
}

}  // namespace
}  // namespace hds
