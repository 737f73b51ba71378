#include "probes.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/packing.hpp"
#include "gemm/plan.hpp"
#include "host.hpp"
#include "simd/dispatch.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gm = egemm::gemm;
namespace core = egemm::core;

namespace {

constexpr int kReps = 5;

/// Bytes of one pack-probe input (two 1024x512 binary32 planes); the
/// memcpy ceiling is measured at the same size.
constexpr std::size_t kPackProbeBytes = std::size_t{2} * 1024 * 512 * 4;

std::vector<float> uniform_floats(std::size_t n, std::uint64_t seed) {
  egemm::util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

/// work / median span duration: work per nanosecond (= G-units per second).
double rate_per_ns(const Tracer& t, const char* span, double work) {
  return work / median(t.durations_ns(span));
}

void probe_host(Tracer& t, MetricValues& out) {
  {
    const Span s(&t, "host.fma_peak");
    out["host.fma_peak_gflops"] = fma_peak_gflops(kReps);
  }
  const Span s(&t, "host.memcpy");
  out["host.memcpy_gbytes_s"] = memcpy_gbytes_s(kPackProbeBytes, 21);
}

/// mma_block_packed on one L1/L2-resident 16 x 256 by 256 x 16 block pair,
/// and the batched f32->f16 converter on 64 Ki elements.
void probe_simd(Tracer& t, std::uint64_t seed, MetricValues& out) {
  const egemm::simd::KernelTable& kt = egemm::simd::active_kernels();
  constexpr int kK = 256, kTile = egemm::simd::kMmaTile, kCalls = 4000;
  std::vector<float> a = uniform_floats(kTile * kK, seed);
  std::vector<float> b = uniform_floats(kK * kTile, seed + 1);
  kt.f32_round_through_f16(a.data(), a.data(), a.size(), true);
  kt.f32_round_through_f16(b.data(), b.data(), b.size(), true);
  std::vector<float> acc(kTile * kTile, 0.0f);
  for (int r = 0; r < kReps; ++r) {
    const Span s(&t, "simd.mma_block_packed");
    for (int c = 0; c < kCalls; ++c) {
      kt.mma_block_packed(acc.data(), a.data(), kK, b.data(), kK);
    }
  }
  out["simd.mma_exec_gflops"] = rate_per_ns(
      t, "simd.mma_block_packed", 2.0 * kTile * kTile * kK * kCalls);

  constexpr std::size_t kElems = std::size_t{1} << 16;
  constexpr int kConvCalls = 100;
  const std::vector<float> in = uniform_floats(kElems, seed + 2);
  std::vector<std::uint16_t> bits(kElems);
  for (int r = 0; r < kReps; ++r) {
    const Span s(&t, "simd.f32_to_f16_bits");
    for (int c = 0; c < kConvCalls; ++c) {
      kt.f32_to_f16_bits(in.data(), bits.data(), kElems, true);
    }
  }
  out["simd.convert_gelem_s"] = rate_per_ns(
      t, "simd.f32_to_f16_bits", static_cast<double>(kElems) * kConvCalls);
  out["simd.isa_tier"] = static_cast<double>(kt.level);
}

/// split_span_f32 -- the split the GEMM engine runs -- on 64 Ki elements,
/// and one accuracy-contract resolution shaped like the kNN search's.
void probe_core(Tracer& t, std::uint64_t seed, MetricValues& out) {
  constexpr std::size_t kElems = std::size_t{1} << 16;
  constexpr int kCalls = 50;
  const std::vector<float> in = uniform_floats(kElems, seed + 3);
  std::vector<float> hi(kElems), lo(kElems);
  for (int r = 0; r < kReps; ++r) {
    const Span s(&t, "core.split_span_f32");
    for (int c = 0; c < kCalls; ++c) {
      core::split_span_f32(in, hi, lo, core::SplitMethod::kRoundSplit);
    }
  }
  out["core.split_gelem_s"] = rate_per_ns(
      t, "core.split_span_f32", static_cast<double>(kElems) * kCalls);

  // The kNN search's contract: 512 queries x 4096 references, dim 64.
  const gm::Matrix q = gm::random_matrix(512, 64, -1.0f, 1.0f, seed + 4);
  const gm::Matrix rt = gm::random_matrix(64, 4096, -1.0f, 1.0f, seed + 5);
  core::AccuracyContract contract;
  contract.max_abs_error = 1e-3;
  contract.a_scale = contract.b_scale = 1.0;
  for (int r = 0; r < 400; ++r) {
    const Span s(&t, "core.gemm_ex_contract_resolution");
    const core::ContractResolution res =
        gm::gemm_ex_contract_resolution(q, rt, nullptr, {}, contract);
    if (!res.feasible) throw std::runtime_error("contract probe infeasible");
  }
  out["core.contract_us"] =
      median(t.durations_ns("core.gemm_ex_contract_resolution")) / 1e3;
}

/// PackedPlanesA/B::assign on two 1024 x 512 planes (kPackProbeBytes).
void probe_pack(Tracer& t, std::uint64_t seed, MetricValues& out) {
  std::vector<gm::Matrix> a_planes, b_planes;
  for (int p = 0; p < 2; ++p) {
    a_planes.push_back(gm::random_matrix(1024, 512, -1.0f, 1.0f, seed + 10 + p));
    b_planes.push_back(gm::random_matrix(512, 1024, -1.0f, 1.0f, seed + 20 + p));
  }
  gm::PackedPlanesA pa;
  gm::PackedPlanesB pb;
  pa.assign(a_planes);  // first assign allocates; the probe times repacks
  pb.assign(b_planes);
  for (int r = 0; r < 2 * kReps; ++r) {
    {
      const Span s(&t, "gemm.PackedPlanesA::assign");
      pa.assign(a_planes);
    }
    const Span s(&t, "gemm.PackedPlanesB::assign");
    pb.assign(b_planes);
  }
  const double moved = 2.0 * static_cast<double>(kPackProbeBytes);  // read + write
  out["gemm.pack_gbytes_s"] =
      (rate_per_ns(t, "gemm.PackedPlanesA::assign", moved) +
       rate_per_ns(t, "gemm.PackedPlanesB::assign", moved)) /
      2.0;
}

/// The small rotation as single calls (per-call percentiles, replayed split
/// share) and as grouped calls (grouped over loop).
void probe_small_calls(Tracer& t, std::uint64_t seed, MetricValues& out) {
  gm::GemmContext ctx;
  const auto calls = make_workload("gemm_small_calls");
  const auto batch = make_workload("gemm_small_batch");
  calls->prepare(seed);
  batch->prepare(seed);
  for (int w = 0; w < 2; ++w) {
    calls->run_op(ctx, nullptr);
    batch->run_op(ctx, nullptr);
  }
  for (int r = 0; r < 3; ++r) {
    const Span s(&t, "probe.small_calls_traced_op");
    calls->run_op(ctx, &t);
  }
  const std::vector<double> call_ns = t.durations_ns("gemm.gemm_ex/32x32x32");
  out["gemm.call_p50_us"] = median(call_ns) / 1e3;
  if (const auto p90 = tail_percentile(call_ns, 0.9)) {
    out["gemm.call_p90_us"] = p90->value / 1e3;
  }
  for (int r = 0; r < 2 * kReps + 1; ++r) {
    {
      const Span s(&t, "probe.small_calls_op");
      calls->run_op(ctx, nullptr);
    }
    const Span s(&t, "probe.small_batch_op");
    batch->run_op(ctx, nullptr);
  }
  const double loop_ns = median(t.durations_ns("probe.small_calls_op"));
  out["gemm.grouped_over_loop"] =
      loop_ns / median(t.durations_ns("probe.small_batch_op"));

  // Split replay: the two split_span_f32 passes every rotation item's
  // gemm_ex runs, on inputs of the same sizes.
  std::vector<std::vector<float>> inputs;
  std::size_t largest = 0;
  for (const Shape& sh : calls->requested_gemms()) {
    inputs.push_back(uniform_floats(sh.m * sh.k, seed + inputs.size()));
    inputs.push_back(uniform_floats(sh.k * sh.n, seed + inputs.size()));
    largest = std::max({largest, sh.m * sh.k, sh.k * sh.n});
  }
  std::vector<float> hi(largest), lo(largest);
  for (int r = 0; r < 2 * kReps + 1; ++r) {
    const Span s(&t, "core.split_span_f32/small_rotation_replay");
    for (const std::vector<float>& in : inputs) {
      core::split_span_f32(in, std::span<float>(hi).first(in.size()),
                           std::span<float>(lo).first(in.size()),
                           core::SplitMethod::kRoundSplit);
    }
  }
  out["core.split_share"] =
      median(t.durations_ns("core.split_span_f32/small_rotation_replay")) / loop_ns;
}

/// The gemm_large op on all pool workers and inside one pool worker (pool
/// reentrancy runs it inline there: the single-core baseline).
void probe_gemm_large(Tracer& t, std::uint64_t seed, MetricValues& out) {
  gm::GemmContext ctx;
  const auto large = make_workload("gemm_large");
  large->prepare(seed);
  large->run_op(ctx, nullptr);
  for (int r = 0; r < 3; ++r) {
    const Span s(&t, "probe.gemm_large_op");
    large->run_op(ctx, nullptr);
  }
  egemm::util::ThreadPool& pool = egemm::util::global_pool();
  for (int r = 0; r < 2; ++r) {
    const Span s(&t, "util.global_pool.submit/gemm_large_op");
    pool.submit([&] { large->run_op(ctx, nullptr); }).get();
  }
  const double flops = static_cast<double>(large->useful_flops());
  const double n_core_ns = median(t.durations_ns("probe.gemm_large_op"));
  const double one_core_ns =
      median(t.durations_ns("util.global_pool.submit/gemm_large_op"));
  const double one_core = flops / one_core_ns;
  out["gemm.one_core_gflops"] = one_core;
  const int terms = core::scheme(core::SchemeId::kRound2).term_count;
  out["gemm.one_core_ceiling_ratio"] =
      one_core / (out.at("simd.mma_exec_gflops") / terms);
  out["util.pool.scaling_efficiency"] =
      one_core_ns / n_core_ns / static_cast<double>(pool.size());
}

/// Each app of the apps_solve op, and a standalone replay of its GEMMs.
void probe_apps(Tracer& t, std::uint64_t seed, MetricValues& out) {
  gm::GemmContext ctx;
  const auto apps = make_workload("apps_solve");
  apps->prepare(seed);
  apps->run_op(ctx, nullptr);
  replay_app_gemms(*apps, ctx, nullptr);
  for (int r = 0; r < 3; ++r) {
    apps->run_op(ctx, &t);
    replay_app_gemms(*apps, ctx, &t);
  }
  const double km = median(t.durations_ns("apps.kmeans"));
  const double knn = median(t.durations_ns("apps.knn_search"));
  const double pca = median(t.durations_ns("apps.pca_power"));
  out["apps.kmeans_ms"] = km / 1e6;
  out["apps.knn_ms"] = knn / 1e6;
  out["apps.pca_ms"] = pca / 1e6;
  out["apps.kmeans_iterations"] = kmeans_iterations(*apps);
  out["apps.gemm_share"] =
      median(t.durations_ns("apps.gemm_replay")) / (km + knn + pca);
}

}  // namespace

void run_layer_probes(Tracer& tracer, std::uint64_t seed, MetricValues& out) {
  const Span s(&tracer, "probes");
  probe_host(tracer, out);
  probe_simd(tracer, seed, out);
  probe_core(tracer, seed, out);
  probe_pack(tracer, seed, out);
  probe_small_calls(tracer, seed, out);
  probe_gemm_large(tracer, seed, out);
  probe_apps(tracer, seed, out);
}

}  // namespace perfbench
