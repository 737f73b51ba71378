#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "simd/isa.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTimes{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTimes& begin, const CpuTimes& end) noexcept {
  if (end.total <= begin.total) return 0.0;
  return 100.0 * static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_stamp_json(double steal) {
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"pool_workers\":" << egemm::util::global_pool().size()
     << ",\"isa\":\"" << egemm::simd::active_isa_name() << "\""
     << ",\"compiler\":\"" << __VERSION__ << "\""
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
     << ",\"observability\":\""
     << (EGEMM_OBSERVABILITY_ENABLED ? "ON" : "OFF") << "\""
     << ",\"git_sha\":\"" << PERFBENCH_GIT_SHA << "\""
     << ",\"cpu_steal_pct\":" << steal << "}";
  return os.str();
}

namespace {

constexpr std::uint64_t kFmaIters = 1u << 22;

#if defined(__x86_64__)
__attribute__((target("avx512f"))) float fma_chains_avx512(std::uint64_t iters,
                                                          double* flops) {
  constexpr int kChains = 12;
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(0.001f * static_cast<float>(c));
  const __m512 mul = _mm512_set1_ps(0.9999999f);
  const __m512 add = _mm512_set1_ps(1e-7f);
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], mul, add);
  }
  __m512 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_ps(sum, acc[c]);
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, sum);
  *flops = 2.0 * 16.0 * kChains * static_cast<double>(iters);
  float total = 0.0f;
  for (const float x : lanes) total += x;
  return total;
}

__attribute__((target("avx2,fma"))) float fma_chains_avx2(std::uint64_t iters,
                                                         double* flops) {
  constexpr int kChains = 10;
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(0.001f * static_cast<float>(c));
  const __m256 mul = _mm256_set1_ps(0.9999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], mul, add);
  }
  __m256 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  *flops = 2.0 * 8.0 * kChains * static_cast<double>(iters);
  float total = 0.0f;
  for (const float x : lanes) total += x;
  return total;
}
#endif

float mul_add_chains_scalar(std::uint64_t iters, double* flops) {
  constexpr int kChains = 8;
  float acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = 0.001f * static_cast<float>(c);
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (float& a : acc) a = a * 0.9999999f + 1e-7f;
  }
  *flops = 2.0 * kChains * static_cast<double>(iters);
  float total = 0.0f;
  for (const float a : acc) total += a;
  return total;
}

volatile float g_sink = 0.0f;

}  // namespace

double fma_peak_gflops(int reps) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    double flops = 0.0;
    const std::uint64_t t0 = now_ns();
    switch (egemm::simd::active_isa()) {
#if defined(__x86_64__)
      case egemm::simd::IsaLevel::kAvx512:
        g_sink = fma_chains_avx512(kFmaIters, &flops);
        break;
      case egemm::simd::IsaLevel::kAvx2:
        g_sink = fma_chains_avx2(kFmaIters, &flops);
        break;
#endif
      default:
        g_sink = mul_add_chains_scalar(kFmaIters, &flops);
    }
    rates.push_back(flops / static_cast<double>(now_ns() - t0));
  }
  return median(rates);
}

double memcpy_gbytes_s(std::size_t bytes, int reps) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    src[static_cast<std::size_t>(r) % bytes] = static_cast<char>(r);
    const std::uint64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), bytes);
    const std::uint64_t dt = now_ns() - t0;
    g_sink = g_sink + static_cast<float>(dst[bytes / 2]);
    rates.push_back(2.0 * static_cast<double>(bytes) / static_cast<double>(dt));
  }
  return median(rates);
}

}  // namespace perfbench
