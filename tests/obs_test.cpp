// Observability layer tests: instrument semantics, order-independent
// aggregation, registry concurrency under the shared thread pool (run
// under TSan in CI), exporter schema stability, and the core contract
// that metrics never feed back into results (engine ServeStats are
// bit-identical with metrics on vs off).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "sim/faults.h"
#include "workload/profile.h"

namespace sq::obs {
namespace {

/// Restores the global registry to a pristine disabled state around each
/// test (the registry is process-wide).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Registry::global().reset();
  }
};

TEST_F(ObsTest, CounterAddAndReset) {
  Counter& c = counter("t.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeTracksLastAndHighWater) {
  Gauge& g = gauge("t.gauge");
  g.set(1.5);
  g.set(9.25);
  g.set(3.0);
  EXPECT_EQ(g.last(), 3.0);
  EXPECT_EQ(g.max(), 9.25);
  EXPECT_EQ(g.sets(), 3u);
}

TEST_F(ObsTest, HistogramBucketsStatsAndLayouts) {
  Histogram& h = histogram("t.hist", BucketLayout::kPow2);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(1e9);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1e9);
  const auto counts = h.counts();
  EXPECT_EQ(counts.size(), layout_bounds(BucketLayout::kPow2).size() + 1);
  EXPECT_EQ(counts.back(), 1u);  // the 1e9 observation
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, 3u);
  // Every layout's bounds are strictly increasing (schema sanity).
  for (const auto layout : {BucketLayout::kTimeUs, BucketLayout::kSeconds,
                            BucketLayout::kPow2, BucketLayout::kRatio}) {
    const auto& b = layout_bounds(layout);
    ASSERT_FALSE(b.empty()) << layout_name(layout);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  }
}

TEST_F(ObsTest, HistogramSumIsObservationOrderIndependent) {
  // Values chosen so floating-point summation order would matter; the
  // fixed-point accumulator must not.
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(0.1 * i + 1.0 / (i + 3));
  Histogram& fwd = histogram("t.sum_fwd", BucketLayout::kRatio);
  Histogram& rev = histogram("t.sum_rev", BucketLayout::kRatio);
  for (const double v : values) fwd.observe(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) rev.observe(*it);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fwd.sum()),
            std::bit_cast<std::uint64_t>(rev.sum()));
}

TEST_F(ObsTest, HistogramLayoutMismatchThrows) {
  histogram("t.layout", BucketLayout::kTimeUs);
  EXPECT_THROW(histogram("t.layout", BucketLayout::kPow2), std::logic_error);
}

TEST_F(ObsTest, RegistryConcurrencyIsExactUnderThreadPool) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerTask = 2000;
  sq::common::ThreadPool pool(kThreads);
  // Every worker hammers the same three instruments plus a per-index one
  // (exercising both the fast path and creation-on-first-use under
  // contention).  Totals must come out exact.
  sq::common::parallel_for(&pool, kThreads, [&](std::size_t t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      counter("t.shared").add();
      gauge("t.shared_gauge").set(static_cast<double>(t));
      histogram("t.shared_hist", BucketLayout::kPow2)
          .observe(static_cast<double>(i % 64));
      counter("t.per_thread." + std::to_string(t)).add();
    }
  });
  EXPECT_EQ(counter("t.shared").value(), kThreads * kPerTask);
  EXPECT_EQ(gauge("t.shared_gauge").max(), static_cast<double>(kThreads - 1));
  EXPECT_EQ(gauge("t.shared_gauge").sets(), kThreads * kPerTask);
  EXPECT_EQ(histogram("t.shared_hist", BucketLayout::kPow2).count(),
            kThreads * kPerTask);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counter("t.per_thread." + std::to_string(t)).value(), kPerTask);
  }
}

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  Registry::global().record_spans({Span{"dropped", 0.0, 1.0, {}}});
  EXPECT_TRUE(Registry::global().snapshot().spans.empty());
}

TEST_F(ObsTest, ResetKeepsInstrumentHandlesValid) {
  Counter& c = counter("t.survivor");
  c.add(7);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // handle still valid after reset
  EXPECT_EQ(counter("t.survivor").value(), 1u);
}

TEST_F(ObsTest, TraceSinkShiftsByBase) {
  TraceSink sink;
  sink.add(Span{"a", 1.0, 2.0, {}});
  sink.base_us = 100.0;
  sink.add(Span{"b", 1.0, 2.0, {}});
  ASSERT_EQ(sink.spans().size(), 2u);
  EXPECT_EQ(sink.spans()[0].start_us, 1.0);
  EXPECT_EQ(sink.spans()[1].start_us, 101.0);
  EXPECT_EQ(sink.spans()[1].end_us, 102.0);
}

// ---- Exporter ----------------------------------------------------------

TEST_F(ObsTest, HexfloatRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 123456.789e-7, 1e300, 5e-324, -2.5,
                         0.0}) {
    const std::string s = hexfloat(v);
    char* end = nullptr;
    const double back = std::strtod(s.c_str(), &end);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
        << s;
  }
}

TEST_F(ObsTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
}

Snapshot sample_snapshot() {
  counter("z.last").add(3);
  counter("a.first").add(1);
  gauge("g.one").set(0.75);
  histogram("h.time", BucketLayout::kTimeUs).observe(42.0);
  TraceSink sink;
  sink.add(Span{"wave", 0.0, 10.0, {{"batch", 4.0}, {"aeta", 2.0}}});
  Registry::global().record_spans(sink.take());
  return Registry::global().snapshot();
}

TEST_F(ObsTest, ExportIsByteStableAndKeySorted) {
  const Snapshot snap = sample_snapshot();
  const std::string once = metrics_json(snap);
  const std::string twice = metrics_json(Registry::global().snapshot());
  EXPECT_EQ(once, twice);  // snapshot + render are deterministic

  // Schema marker and top-level key order.
  EXPECT_NE(once.find(kMetricsSchema), std::string::npos);
  const std::size_t c = once.find("\"counters\"");
  const std::size_t g = once.find("\"gauges\"");
  const std::size_t h = once.find("\"histograms\"");
  const std::size_t sc = once.find("\"schema\"");
  const std::size_t sp = once.find("\"spans\"");
  ASSERT_NE(c, std::string::npos);
  EXPECT_TRUE(c < g && g < h && h < sc && sc < sp) << once;
  // Instrument names sorted within their section.
  EXPECT_LT(once.find("a.first"), once.find("z.last"));
  // Span attributes key-sorted at export regardless of insertion order.
  EXPECT_LT(once.find("\"aeta\""), once.find("\"batch\""));
}

TEST_F(ObsTest, ExportedValuesRoundTrip) {
  const Snapshot snap = sample_snapshot();
  const std::string json = metrics_json(snap);
  // The histogram sum is rendered hexfloat: locate it and parse it back.
  const std::string key = "\"sum\": \"";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  const double back = std::strtod(json.c_str() + at + key.size(), nullptr);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
            std::bit_cast<std::uint64_t>(snap.histograms.front().sum));
  // Summary writer runs without touching registry state.
  std::ostringstream human;
  write_metrics_summary(snap, human);
  EXPECT_NE(human.str().find("a.first"), std::string::npos);
  EXPECT_EQ(metrics_json(Registry::global().snapshot()), json);
}

// ---- Metrics never feed back into results ------------------------------

std::string stats_fingerprint(const sq::runtime::ServeStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "ok=%d tput=%a tok=%a sec=%a waves=%llu bub=%a",
                s.feasible, s.throughput_tok_s, s.output_tokens, s.total_seconds,
                static_cast<unsigned long long>(s.waves), s.mean_bubble);
  return buf;
}

TEST_F(ObsTest, ServeStatsBitIdenticalWithMetricsOnVsOff) {
  const auto m = sq::model::spec(sq::model::ModelId::kQwen25_14B);
  const auto cluster = sq::hw::paper_cluster(3);
  const auto reqs =
      sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 48, 7);

  sq::sim::ExecutionPlan plan;
  plan.scheme = "uniform";
  const int half = m.n_layers / 2;
  sq::sim::StageSpec s0, s1;
  s0.devices = {0};
  s0.layer_begin = 0;
  s0.layer_end = half;
  s1.devices = {1};
  s1.layer_begin = half;
  s1.layer_end = m.n_layers;
  plan.stages = {s0, s1};
  plan.layer_bits.assign(static_cast<std::size_t>(m.n_layers),
                         sq::hw::Bitwidth::kInt4);
  plan.prefill_microbatch = 2;
  plan.decode_microbatch = 16;

  set_enabled(false);
  sq::runtime::OfflineEngine quiet(cluster, m, plan);
  const std::string off = stats_fingerprint(quiet.serve_requests(reqs, 32));

  set_enabled(true);
  sq::runtime::OfflineEngine loud(cluster, m, plan);
  loud.set_observe(true);
  const std::string on = stats_fingerprint(loud.serve_requests(reqs, 32));
  EXPECT_EQ(on, off);

  // And the instrumented run actually recorded something.
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_FALSE(snap.spans.empty());
  bool saw_waves = false;
  for (const auto& c : snap.counters) {
    if (c.name == "runtime.waves") saw_waves = c.value > 0;
  }
  EXPECT_TRUE(saw_waves);
}

TEST_F(ObsTest, FaultedBatchServeRecordsRuntimeWaves) {
  // Batch serving has one wave loop; under a fault schedule it records the
  // same runtime.* surface as a fault-free serve, counting completed waves
  // only (aborted waves re-run and are counted once).
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  const auto cluster = sq::hw::paper_cluster(9);
  sq::sim::ExecutionPlan plan;
  const int per = m.n_layers / 4;
  for (int s = 0; s < 4; ++s) {
    plan.stages.push_back({{s}, s * per, s + 1 == 4 ? m.n_layers : (s + 1) * per});
  }
  plan.layer_bits.assign(static_cast<std::size_t>(m.n_layers),
                         sq::hw::Bitwidth::kInt8);
  plan.prefill_microbatch = 4;
  plan.decode_microbatch = 16;
  const std::vector<sq::sim::BatchWorkload> batches = {{16, 512, 32, 2048},
                                                       {16, 256, 16, 2048}};

  sq::runtime::OfflineEngine eng(cluster, m, plan);
  eng.set_observe(true);
  const sq::runtime::ServeStats healthy = eng.serve(batches);
  ASSERT_TRUE(healthy.feasible) << healthy.failure;
  Registry::global().reset();

  sq::sim::FaultSchedule faults;
  faults.events.push_back({sq::sim::FaultKind::kDeviceFail, 1,
                           healthy.total_seconds * 0.5 * 1e6, 1e5});
  sq::runtime::RecoveryOptions opts;
  opts.faults = &faults;
  const sq::runtime::RecoveryStats r = eng.serve(batches, opts);
  ASSERT_TRUE(r.serve.feasible) << r.serve.failure;
  ASSERT_GE(r.faults_hit, 1u);

  const Snapshot snap = Registry::global().snapshot();
  double waves = -1.0;
  double batches_seen = -1.0;
  double aborts = -1.0;
  for (const auto& c : snap.counters) {
    if (c.name == "runtime.waves") waves = static_cast<double>(c.value);
    if (c.name == "runtime.batches") batches_seen = static_cast<double>(c.value);
    if (c.name == "fault.aborts") aborts = static_cast<double>(c.value);
  }
  EXPECT_EQ(waves, static_cast<double>(r.serve.waves));
  EXPECT_EQ(batches_seen, static_cast<double>(r.serve.batches));
  EXPECT_EQ(aborts, static_cast<double>(r.faults_hit));
}

}  // namespace
}  // namespace sq::obs
