// egemm_perfbench: one workload of the end-to-end + per-layer benchmark.
// run.py drives it; see README.md for the metrics and workloads.
//
//   egemm_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//   egemm_perfbench --setup-only --workload W [--trace-out FILE]
//   egemm_perfbench --list-metrics
//
// Load model: a closed loop from this one caller thread -- the next op is
// issued only after the previous one returned; the library's global_pool()
// supplies the only other threads. The last stdout line is one JSON object.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/plan.hpp"
#include "host.hpp"
#include "metrics.hpp"
#include "obs/callrec.hpp"
#include "probes.hpp"
#include "simd/isa.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace gm = egemm::gemm;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool setup_only = false;
  bool list_metrics = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args.list_metrics ||
         (!args.workload.empty() && args.seconds > 0.0 &&
          (args.trace == 0 || args.trace == 1));
}

std::string defs_json(std::span<const MetricDef> defs) {
  std::string out = "[";
  for (const MetricDef& d : defs) {
    out += std::string(out.size() > 1 ? "," : "") + "{\"name\":\"" + d.name +
           "\",\"unit\":\"" + d.unit + "\"}";
  }
  return out + "]";
}

/// Library set-up in a fresh process: pool start, ISA probe, plan build and
/// workspace warm-up for the workload's shapes on a fresh GemmContext.
int run_setup_only(const Workload& w, const std::string& trace_out) {
  Tracer tracer;
  Tracer* t = trace_out.empty() ? nullptr : &tracer;
  const std::uint64_t t0 = now_ns();
  {
    const Span s(t, "util.global_pool");
    egemm::util::global_pool();
  }
  {
    const Span s(t, "simd.active_isa");
    egemm::simd::active_isa();
  }
  gm::GemmContext ctx;
  const std::vector<Shape> shapes = w.distinct_shapes();
  std::vector<std::shared_ptr<const gm::GemmPlan>> plans;
  const std::uint64_t plan0 = now_ns();
  for (const Shape& sh : shapes) {
    const Span s(t, "gemm.GemmContext::plan");
    plans.push_back(ctx.plan(gm::Backend::kEgemmTC, sh.m, sh.n, sh.k));
  }
  const std::uint64_t plan_ns = now_ns() - plan0;
  for (const auto& plan : plans) {
    const Span s(t, "gemm.GemmContext::lease_workspace");
    gm::WorkspaceLease lease = ctx.lease_workspace();
    lease->ensure(plan->m(), plan->n(), plan->k(), plan->planes());
    lease->pack();
  }
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (t != nullptr && !tracer.write_chrome_json(trace_out, "{}")) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("{\"setup_s\":%.9g,\"plan_build_us\":%.9g,\"plans\":%zu}\n",
              setup_s,
              static_cast<double>(plan_ns) / 1e3 / static_cast<double>(shapes.size()),
              shapes.size());
  return 0;
}

struct LoopResult {
  std::vector<double> untraced_ns;
  std::vector<double> traced_ns;
  std::size_t failed = 0;
  double wall_ns = 0.0;
};

struct Reference {
  bool have = false;
  std::uint64_t hash = 0;
  std::string first_error;
};

/// Closed loop for `seconds`: each op is timed alone; its output hash and
/// any exception are examined after the op's clock stopped. With a tracer,
/// every second op runs traced, so traced and untraced ops share the same
/// stretch of time and their medians differ only by the cost of tracing.
LoopResult run_ops(Workload& w, gm::GemmContext& ctx, Tracer* tracer,
                   double seconds, Reference& ref) {
  LoopResult res;
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t issued = 0;
  do {
    Tracer* t = tracer != nullptr && issued++ % 2 == 1 ? tracer : nullptr;
    bool threw = false;
    const std::uint64_t t0 = now_ns();
    try {
      const Span op(t, "op");
      w.run_op(ctx, t);
    } catch (const std::exception& e) {
      threw = true;
      if (ref.first_error.empty()) ref.first_error = e.what();
    }
    (t != nullptr ? res.traced_ns : res.untraced_ns)
        .push_back(static_cast<double>(now_ns() - t0));
    if (threw) {
      ++res.failed;
      continue;
    }
    const std::uint64_t h = w.output_hash();
    if (!ref.have) {
      ref = Reference{true, h, ref.first_error};
      w.keep_reference();
    } else if (h != ref.hash) {
      ++res.failed;
    }
  } while (now_ns() < deadline);
  res.wall_ns = static_cast<double>(now_ns() - start);
  return res;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

/// Flop-weighted executed terms per useful flop over the drained records.
double executed_per_useful(const std::vector<egemm::obs::CallRecord>& recs) {
  double useful = 0.0, executed = 0.0;
  for (const auto& r : recs) {
    const int terms =
        r.scheme >= 0
            ? egemm::core::scheme(static_cast<egemm::core::SchemeId>(r.scheme))
                  .term_count
            : 1;
    useful += static_cast<double>(r.flops);
    executed += static_cast<double>(r.flops) * terms;
  }
  return useful > 0.0 ? executed / useful : 0.0;
}

int run_benchmark(const Args& args, Workload& w) {
  const CpuTimes cpu_begin = read_cpu_times();
  egemm::util::ThreadPool& pool = egemm::util::global_pool();
  egemm::simd::active_isa();
  // Host speed before and after the run: a congested or throttled host
  // shows here, not only as slower ops.
  const double fma_begin = fma_peak_gflops(3);
  gm::GemmContext ctx;
  w.prepare(args.seed);

  // Warm-up (untimed): plans, workspaces and page faults settle.
  std::size_t warmup_ops = 0;
  const std::uint64_t warm_end =
      now_ns() + static_cast<std::uint64_t>(0.05 * args.seconds * 1e9);
  while (warmup_ops < 2 || now_ns() < warm_end) {
    try {
      w.run_op(ctx, nullptr);
    } catch (const std::exception&) {
      // Counted when the same failure recurs in the timed ops.
    }
    ++warmup_ops;
  }

  Reference ref;
  MetricValues values;
  Tracer tracer;
  const std::vector<egemm::util::WorkerStats> stats0 = pool.worker_stats();
  const std::uint64_t hits0 = ctx.plan_hits(), misses0 = ctx.plan_misses();
  egemm::obs::clear_call_records();
  const LoopResult loop =
      run_ops(w, ctx, args.trace == 1 ? &tracer : nullptr, args.seconds, ref);
  std::vector<double> op_ns = loop.untraced_ns;
  op_ns.insert(op_ns.end(), loop.traced_ns.begin(), loop.traced_ns.end());
  std::size_t failed = loop.failed;
  if (args.trace == 1) {
    // Workload-level layer counters, over every op of the loop.
    const std::vector<egemm::obs::CallRecord> recs =
        egemm::obs::drain_call_records();
    const double dropped = static_cast<double>(egemm::obs::dropped_call_records());
    const std::vector<egemm::util::WorkerStats> stats1 = pool.worker_stats();
    const double hits = static_cast<double>(ctx.plan_hits() - hits0);
    const double misses = static_cast<double>(ctx.plan_misses() - misses0);
    double busy = 0.0, tasks = 0.0;
    for (std::size_t i = 0; i < stats1.size(); ++i) {
      busy += static_cast<double>(stats1[i].busy_ns - stats0[i].busy_ns);
      tasks += static_cast<double>(stats1[i].tasks_executed - stats0[i].tasks_executed);
    }
    values["util.pool.busy_fraction"] =
        busy / (static_cast<double>(pool.size()) * loop.wall_ns);
    values["util.pool.tasks_per_op"] = tasks / static_cast<double>(op_ns.size());
    if (hits + misses > 0) values["gemm.plan_hit_ratio"] = hits / (hits + misses);
    if (!recs.empty() || dropped > 0) {
      values["obs.calls_dropped_fraction"] =
          dropped / (static_cast<double>(recs.size()) + dropped);
    }
    if (!recs.empty()) values["core.executed_per_useful_flop"] = executed_per_useful(recs);
    if (!loop.traced_ns.empty()) {
      values["bench.trace_overhead"] =
          median(loop.traced_ns) / median(loop.untraced_ns);
    }
  }

  const double rss_mib = peak_rss_mib();
  CheckResult check;
  try {
    check = ref.have ? w.check_reference(ctx)
                     : CheckResult{false, "{\"error\":\"no op returned\"}"};
  } catch (const std::exception& e) {
    check = CheckResult{false, "{\"error\":\"" + json_escape(e.what()) + "\"}"};
  }
  // A reference op that fails its oracle fails every op that matched it.
  if (!check.ok) failed = op_ns.size();

  const std::size_t attempted = op_ns.size();
  const double p50_ns = median(op_ns);
  const auto p90 = tail_percentile(op_ns, 0.9);
  const std::vector<double> quartiles =
      op_ns.size() >= 2 ? perfbench::quantiles(op_ns, 4) : std::vector<double>(3, p50_ns);
  if (args.trace == 0) {
    values["useful_gflops"] = static_cast<double>(w.useful_flops()) / p50_ns;
    values["op_p50_ms"] = p50_ns / 1e6;
    if (p90) values["op_p90_ms"] = p90->value / 1e6;
    values["op_success_rate"] =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
    values["peak_rss_mb"] = rss_mib;
  } else {
    run_layer_probes(tracer, args.seed, values);
  }
  const double steal = steal_pct(cpu_begin, read_cpu_times());
  const double fma_end = fma_peak_gflops(3);
  if (args.trace == 1) values["host.cpu_steal_pct"] = steal;

  std::ostringstream detail;
  detail << "{\"workload\":\"" << w.name() << "\",\"seed\":" << args.seed
         << ",\"mode\":\"" << (args.trace == 0 ? "untraced" : "traced")
         << "\",\"ops\":" << attempted << ",\"warmup_ops\":" << warmup_ops
         << ",\"op_p90_samples_beyond\":" << (p90 ? p90->beyond : 0)
         << ",\"op_quartiles_ms\":[" << quartiles[0] / 1e6 << ','
         << quartiles[1] / 1e6 << ',' << quartiles[2] / 1e6 << ']'
         << ",\"useful_gflop_per_op\":"
         << static_cast<double>(w.useful_flops()) / 1e9
         << ",\"fma_peak_gflops_begin_end\":[" << fma_begin << ',' << fma_end << ']'
         << ",\"first_error\":\"" << json_escape(ref.first_error)
         << "\",\"checks\":" << check.detail
         << ",\"host\":" << host_stamp_json(steal) << "}";
  if (!args.trace_out.empty()) {
    std::ostringstream other;
    other << "{\"detail\":" << detail.str() << ",\"span_totals\":{";
    bool first = true;
    for (const auto& [name, t] : tracer.totals()) {
      other << (first ? "" : ",") << '"' << name << "\":{\"count\":" << t.count
            << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns << '}';
      first = false;
    }
    other << "}}";
    if (!tracer.write_chrome_json(args.trace_out, other.str())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  std::printf("{\"detail\":%s}\n", detail.str().c_str());
  const auto defs = args.trace == 0 ? std::span<const MetricDef>(kEndToEnd)
                                    : std::span<const MetricDef>(kPerLayer);
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(defs, values).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: egemm_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] | --setup-only --workload W "
                 "| --list-metrics\n");
    return 2;
  }
  if (args.list_metrics) {
    std::string names = "[";
    for (const std::string_view n : workload_names()) {
      names += std::string(names.size() > 1 ? "," : "") + "\"" + std::string(n) + "\"";
    }
    std::printf("{\"workloads\":%s],\"end_to_end\":%s,\"per_layer\":%s}\n",
                names.c_str(), defs_json(kEndToEnd).c_str(),
                defs_json(kPerLayer).c_str());
    return 0;
  }
  const std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    return args.setup_only ? run_setup_only(*w, args.trace_out)
                           : run_benchmark(args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
