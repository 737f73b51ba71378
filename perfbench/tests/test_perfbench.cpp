// Self-tests of the benchmark harness: order statistics, the tail
// percentile rule, span nesting, and per-workload flop accounting.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "gemm/plan.hpp"
#include "metrics.hpp"
#include "obs/callrec.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from Python's statistics.quantiles(v, n=4).
  const auto q10 = quantiles(iota_samples(10), 4);
  ASSERT_EQ(q10.size(), 3u);
  EXPECT_DOUBLE_EQ(q10[0], 2.75);
  EXPECT_DOUBLE_EQ(q10[1], 5.5);
  EXPECT_DOUBLE_EQ(q10[2], 8.25);
  const auto q4 = quantiles({4.0, 2.0, 3.0, 1.0}, 4);
  EXPECT_DOUBLE_EQ(q4[0], 1.25);
  EXPECT_DOUBLE_EQ(q4[1], 2.5);
  EXPECT_DOUBLE_EQ(q4[2], 3.75);
  const auto q2 = quantiles({3.0, 1.0}, 4);
  EXPECT_DOUBLE_EQ(q2[0], 0.5);
  EXPECT_DOUBLE_EQ(q2[2], 3.5);
  const auto q5 = quantiles({5.0, 1.0, 4.0, 2.0, 3.0}, 4);
  EXPECT_DOUBLE_EQ(q5[0], 1.5);
  EXPECT_DOUBLE_EQ(q5[2], 4.5);
  EXPECT_THROW(quantiles({1.0}, 4), std::invalid_argument);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyond) {
  const auto p = tail_percentile(iota_samples(100), 0.9);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->value, 90.0);
  EXPECT_EQ(p->samples, 100u);
  EXPECT_EQ(p->beyond, 10u);
  // 99 samples leave only 9 beyond the p90: missing, not guessed.
  EXPECT_FALSE(tail_percentile(iota_samples(99), 0.9).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.9).has_value());
  const auto big = tail_percentile(iota_samples(1000), 0.9);
  ASSERT_TRUE(big.has_value());
  EXPECT_DOUBLE_EQ(big->value, 900.0);
  EXPECT_EQ(big->beyond, 100u);
}

TEST(Spans, NestAndCloseInOrder) {
  Tracer t;
  {
    const Span outer(&t, "outer");
    {
      const Span inner(&t, "inner");
      EXPECT_EQ(t.open_depth(), 2u);
    }
    const Span sibling(&t, "inner");
  }
  EXPECT_EQ(t.open_depth(), 0u);
  const auto& r = t.records();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].parent, 0u);
  EXPECT_EQ(r[1].parent, r[0].id);
  EXPECT_EQ(r[2].parent, r[0].id);
  for (const auto& rec : r) EXPECT_GE(rec.end_ns, rec.start_ns);
  // Children close before their parent.
  EXPECT_LE(r[1].end_ns, r[2].start_ns);
  EXPECT_LE(r[2].end_ns, r[0].end_ns);

  const auto totals = t.totals();
  EXPECT_EQ(totals.at("inner").count, 2u);
  const auto& outer = totals.at("outer");
  EXPECT_EQ(outer.self_ns, outer.total_ns - totals.at("inner").total_ns);
}

TEST(Spans, ClosingOutOfOrderIsRejected) {
  Tracer t;
  const std::uint32_t a = t.open("a");
  const std::uint32_t b = t.open("b");
  EXPECT_THROW(t.close(a), std::logic_error);
  t.close(b);
  t.close(a);
  EXPECT_THROW(t.close(a), std::logic_error);
}

TEST(Spans, NullTracerRecordsNothing) {
  const Span s(nullptr, "ignored");
  SUCCEED();
}

TEST(Metrics, EmittedJsonKeepsDefinitionOrderAndUnits) {
  const std::string json =
      metrics_json(kEndToEnd, {{"op_p50_ms", 1.5}, {"setup_s", 0.25}});
  EXPECT_EQ(json,
            "{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},"
            "\"op_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}");
}

TEST(Workloads, EveryNamedWorkloadExists) {
  ASSERT_EQ(workload_names().size(), 4u);
  for (const std::string_view name : workload_names()) {
    const auto w = make_workload(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
  }
  EXPECT_EQ(make_workload("nope"), nullptr);
}

TEST(Workloads, FlopAccountingIsTwoMnkOfTheRequestedGemms) {
  const auto large = make_workload("gemm_large");
  EXPECT_EQ(large->useful_flops(),
            2ull * 1024 * 1024 * 1024 + 2ull * 2048 * 512 * 512);
  const auto calls = make_workload("gemm_small_calls");
  const auto batch = make_workload("gemm_small_batch");
  // Four passes over the 96-item rotation.
  EXPECT_EQ(calls->requested_gemms().size(), 4u * 96);
  EXPECT_EQ(calls->requested_gemms(), batch->requested_gemms());
  EXPECT_EQ(calls->useful_flops(), 4 * (48ull * 2 * 32 * 32 * 32 +
                                        32ull * 2 * 64 * 96 * 48 +
                                        16ull * 2 * 128 * 128 * 128));
}

// The accounting must match what the library itself records executing:
// one op's call records sum to exactly the workload's useful flops.
TEST(Workloads, FlopAccountingMatchesTheLibrarysCallRecords) {
  for (const std::string_view name : workload_names()) {
    const auto w = make_workload(name);
    w->prepare(3);
    egemm::gemm::GemmContext ctx;
    egemm::obs::clear_call_records();
    w->run_op(ctx, nullptr);
    std::uint64_t recorded = 0;
    for (const auto& rec : egemm::obs::drain_call_records()) recorded += rec.flops;
    EXPECT_EQ(egemm::obs::dropped_call_records(), 0u) << name;
    if (EGEMM_OBSERVABILITY_ENABLED) {
      EXPECT_EQ(recorded, w->useful_flops()) << name;
    }
  }
}

TEST(Workloads, OpsAreIdenticalUnitsOfWorkAndPassTheirOracles) {
  for (const std::string_view name : workload_names()) {
    const auto w = make_workload(name);
    w->prepare(11);
    egemm::gemm::GemmContext ctx;
    w->run_op(ctx, nullptr);
    const std::uint64_t first = w->output_hash();
    w->keep_reference();
    w->run_op(ctx, nullptr);
    EXPECT_EQ(w->output_hash(), first) << name;
    const CheckResult check = w->check_reference(ctx);
    EXPECT_TRUE(check.ok) << name << ": " << check.detail;
  }
}

TEST(Workloads, SeedsChangeInputs) {
  const auto a = make_workload("gemm_small_calls");
  const auto b = make_workload("gemm_small_calls");
  a->prepare(1);
  b->prepare(2);
  egemm::gemm::GemmContext ctx;
  a->run_op(ctx, nullptr);
  b->run_op(ctx, nullptr);
  EXPECT_NE(a->output_hash(), b->output_hash());
}
