// Tests for the observability layer (DESIGN.md §12): registry sharding,
// span recording/export, and the compile-time OFF guarantees. The registry
// is process-global, so every test asserts deltas against a before-value or
// uses test-unique metric names.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace egemm::obs {
namespace {

// With EGEMM_OBSERVABILITY=OFF the span type must carry no state and the
// recording macros must be plain void expressions -- pinned at compile time
// so a regression cannot sneak past an OFF build.
#if !EGEMM_OBSERVABILITY_ENABLED
static_assert(std::is_empty_v<ScopedSpan>);
static_assert(std::is_void_v<decltype(EGEMM_TRACE_SCOPE("x"))>);
static_assert(std::is_void_v<decltype(EGEMM_COUNTER_ADD("x", 1))>);
static_assert(std::is_void_v<decltype(EGEMM_GAUGE_ADD("x", 1))>);
static_assert(std::is_void_v<decltype(EGEMM_GAUGE_SET("x", 1))>);
static_assert(std::is_void_v<decltype(EGEMM_HISTOGRAM_RECORD("x", 1))>);
static_assert(std::is_void_v<decltype(EGEMM_LATENCY_RECORD("x", 1))>);
#endif
static_assert(!kEnabled || !std::is_empty_v<ScopedSpan>);

TEST(Metrics, CounterHandleIsStableAndNamed) {
  Counter& a = registry().counter("test.handle");
  Counter& b = registry().counter("test.handle");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "test.handle");
}

TEST(Metrics, CounterConcurrentIncrementsSumExactly) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  Counter& counter = registry().counter("test.concurrent");
  const std::uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  // Per-thread cells are single-writer, so no increment can be lost.
  EXPECT_EQ(counter.value() - before, kThreads * kPerThread);
}

TEST(Metrics, MacroCachesHandleAndAddsDelta) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::uint64_t before = registry().counter("test.macro").value();
  for (int i = 0; i < 10; ++i) EGEMM_COUNTER_ADD("test.macro", 3);
  EXPECT_EQ(registry().counter("test.macro").value() - before, 30u);
}

TEST(Metrics, GaugeLastValueSemantics) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  Gauge& gauge = registry().gauge("test.gauge");
  gauge.set(5);
  EXPECT_EQ(gauge.value(), 5);
  gauge.add(-7);
  EXPECT_EQ(gauge.value(), -2);
}

TEST(Metrics, HistogramBucketsByBitWidth) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  Histogram& hist = registry().histogram("test.hist");
  const std::uint64_t count_before = hist.count();
  const std::uint64_t sum_before = hist.sum();
  hist.record(0);   // bucket 0
  hist.record(1);   // bucket 1
  hist.record(2);   // bucket 2: [2, 4)
  hist.record(3);   // bucket 2
  hist.record(4);   // bucket 3: [4, 8)
  EXPECT_EQ(hist.count() - count_before, 5u);
  EXPECT_EQ(hist.sum() - sum_before, 10u);
  const MetricsSnapshot snap = registry().snapshot();
  for (const HistogramSample& sample : snap.histograms) {
    if (sample.name != "test.hist") continue;
    EXPECT_GE(sample.buckets[0], 1u);
    EXPECT_GE(sample.buckets[2], 2u);
    EXPECT_DOUBLE_EQ(sample.mean(),
                     static_cast<double>(sample.sum) /
                         static_cast<double>(sample.count));
    return;
  }
  FAIL() << "test.hist missing from snapshot";
}

TEST(Metrics, SnapshotIsSortedByName) {
  registry().counter("test.zzz");
  registry().counter("test.aaa");
  const MetricsSnapshot snap = registry().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST(Metrics, JsonBlockCarriesCountersAndParsesAsObject) {
  registry().counter("test.json_block");
  const std::string block = metrics_json_block();
  ASSERT_FALSE(block.empty());
  EXPECT_EQ(block.front(), '{');
  EXPECT_EQ(block.back(), '}');
  EXPECT_NE(block.find("\"counters\""), std::string::npos);
  EXPECT_NE(block.find("\"test.json_block\""), std::string::npos);
}

TEST(Trace, NestedSpansEmitWellFormedPairs) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_trace();
  set_tracing(true);
  {
    EGEMM_TRACE_SCOPE("outer");
    {
      EGEMM_TRACE_SCOPE("inner");
    }
  }
  set_tracing(false);
  const std::vector<TraceEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start: outer opened first, and the inner interval must be
  // fully contained in the outer one on the same thread track.
  const TraceEvent& outer = events[0];
  const TraceEvent& inner = events[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  clear_trace();
}

TEST(Trace, DisabledTracingRecordsNothing) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_trace();
  set_tracing(false);
  {
    EGEMM_TRACE_SCOPE("ghost");
  }
  EXPECT_TRUE(collect_trace().empty());
}

TEST(Trace, ScopedSpanFeedsSinkAndSpanFromOneClockPair) {
  clear_trace();
  std::uint64_t sink = 0;
  {
    const ScopedSpan untimed("untimed", nullptr);  // tracing off: no clock
  }
  set_tracing(true);
  {
    const ScopedSpan stage("stage", &sink);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  set_tracing(false);
  const std::vector<TraceEvent> events = collect_trace();
  if (!kEnabled) {
    EXPECT_EQ(sink, 0u);  // empty type: the sink is never written
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "stage");
  EXPECT_EQ(events[0].dur_ns, sink);
  EXPECT_GE(sink, 50'000u);
  clear_trace();
}

TEST(Trace, ChromeExportCarriesSpansAndThreadNames) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_trace();
  set_thread_name("test-main");
  set_tracing(true);
  {
    EGEMM_TRACE_SCOPE("exported_span");
  }
  set_tracing(false);
  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"exported_span\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("test-main"), std::string::npos);
  clear_trace();
}

TEST(Trace, SpansFromWorkerThreadsLandOnDistinctTracks) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  clear_trace();
  set_tracing(true);
  const std::uint32_t main_tid = current_thread_id();
  std::uint32_t worker_tid = 0;
  std::thread worker([&worker_tid] {
    worker_tid = current_thread_id();
    EGEMM_TRACE_SCOPE("worker_span");
  });
  worker.join();
  set_tracing(false);
  EXPECT_NE(main_tid, worker_tid);
  const std::vector<TraceEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, worker_tid);
  clear_trace();
}

TEST(Trace, OffBuildRecordsNoEventsAtAll) {
  if (kEnabled) GTEST_SKIP() << "only meaningful with EGEMM_OBSERVABILITY=OFF";
  set_tracing(true);
  {
    EGEMM_TRACE_SCOPE("noop");
  }
  set_tracing(false);
  EXPECT_TRUE(collect_trace().empty());
}

}  // namespace
}  // namespace egemm::obs
