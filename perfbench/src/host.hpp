#pragma once
// Host context stamped on every run, plus the ceiling probes the layer
// metrics are read against.

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Aggregate CPU jiffies from /proc/stat (all zero when unavailable).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();

/// Share of CPU time stolen by the hypervisor between two readings, in %.
double steal_pct(const CpuTimes& begin, const CpuTimes& end) noexcept;

/// Peak resident set size of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mib();

/// The run's host stamp as a JSON object: nproc, pool workers, ISA tier,
/// compiler, build type, observability, git sha and `steal` (in %).
std::string host_stamp_json(double steal);

/// Single-thread FMA peak at the active ISA tier, in GFLOP/s: independent
/// multiply-add chains that keep every FMA port busy. Median of `reps`.
double fma_peak_gflops(int reps);

/// Copy bandwidth of std::memcpy on `bytes`-sized buffers, counting the
/// read and the write (2 * bytes per copy), in GB/s. Median of `reps`.
double memcpy_gbytes_s(std::size_t bytes, int reps);

}  // namespace perfbench
