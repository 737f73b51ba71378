#pragma once
// The benchmark's metric names and units: the single list both the C++
// harness emits from and BENCHMARK.json must agree with (the self-tests
// compare them).

#include <array>
#include <cstdio>
#include <map>
#include <span>
#include <string>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Untraced run, per workload. setup_s is measured by run.py in fresh
/// processes (--setup-only) and merged into the same result.
inline constexpr std::array<MetricDef, 6> kEndToEnd{{
    {"setup_s", "s"},
    {"useful_gflops", "GFLOP/s"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"op_success_rate", "fraction"},
    {"peak_rss_mb", "MiB"},
}};

/// Traced run. gemm.plan_build_us is measured by run.py in fresh processes.
inline constexpr std::array<MetricDef, 28> kPerLayer{{
    {"host.fma_peak_gflops", "GFLOP/s"},
    {"host.memcpy_gbytes_s", "GB/s"},
    {"host.cpu_steal_pct", "%"},
    {"simd.mma_exec_gflops", "GFLOP/s"},
    {"simd.convert_gelem_s", "Gelem/s"},
    {"simd.isa_tier", "level"},
    {"core.split_gelem_s", "Gelem/s"},
    {"core.split_share", "fraction"},
    {"core.contract_us", "us"},
    {"core.executed_per_useful_flop", "ratio"},
    {"gemm.pack_gbytes_s", "GB/s"},
    {"gemm.plan_build_us", "us"},
    {"gemm.plan_hit_ratio", "fraction"},
    {"gemm.call_p50_us", "us"},
    {"gemm.call_p90_us", "us"},
    {"gemm.one_core_gflops", "GFLOP/s"},
    {"gemm.one_core_ceiling_ratio", "ratio"},
    {"gemm.grouped_over_loop", "ratio"},
    {"util.pool.scaling_efficiency", "fraction"},
    {"util.pool.busy_fraction", "fraction"},
    {"util.pool.tasks_per_op", "count"},
    {"apps.kmeans_ms", "ms"},
    {"apps.knn_ms", "ms"},
    {"apps.pca_ms", "ms"},
    {"apps.kmeans_iterations", "count"},
    {"apps.gemm_share", "fraction"},
    {"obs.calls_dropped_fraction", "fraction"},
    {"bench.trace_overhead", "ratio"},
}};

using MetricValues = std::map<std::string, double>;

/// {"name": {"value": v, "unit": u}, ...} for every def that has a value,
/// in def order; a metric without a value is left out (reported missing).
inline std::string metrics_json(std::span<const MetricDef> defs,
                                const MetricValues& values) {
  std::string out = "{";
  char buf[160];
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) continue;
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  out.size() > 1 ? "," : "", def.name, it->second, def.unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace perfbench
