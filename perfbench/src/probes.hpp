#pragma once
// Layer probes for the traced run: each one calls a layer's public entry
// point under a benchmark-side span, on a fixed unit of work, and turns the
// span durations into that layer's metric. The probes do not depend on the
// workload being run; the workload-specific per-layer metrics come from
// the traced ops themselves (main.cpp).

#include <cstdint>

#include "metrics.hpp"
#include "spans.hpp"

namespace perfbench {

/// Runs every layer probe, recording spans into `tracer`, and stores the
/// resulting per-layer metrics in `out`.
void run_layer_probes(Tracer& tracer, std::uint64_t seed, MetricValues& out);

}  // namespace perfbench
