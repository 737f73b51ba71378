#pragma once
// The benchmark's workloads. One op of a workload is always the SAME fixed
// unit of work (a whole rotation of GEMMs or app solves), so the op-time
// percentiles measure noise, not a mix of unequal op types. README.md
// records why each workload exists and which layers it stresses.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "spans.hpp"

namespace perfbench {

struct Shape {
  std::size_t m = 0, n = 0, k = 0;
  friend bool operator==(const Shape&, const Shape&) = default;
};

inline std::uint64_t gemm_flops(const Shape& s) noexcept {
  return std::uint64_t{2} * s.m * s.n * s.k;
}

/// Word-wise 64-bit hash of output bytes; equal outputs hash equal.
class Hasher {
 public:
  void add(const void* data, std::size_t bytes) noexcept;
  void add(const egemm::gemm::Matrix& m) noexcept {
    add(m.data().data(), m.size() * sizeof(float));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Outcome of the oracle checks on a workload's reference op.
struct CheckResult {
  bool ok = true;
  std::string detail;  ///< JSON object with the measured check values
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;
  /// Every GEMM one op requests, in issue order (flop accounting and
  /// set-up planning derive from this list).
  virtual std::vector<Shape> requested_gemms() const = 0;
  /// Generates every input from `seed`; never timed.
  virtual void prepare(std::uint64_t seed) = 0;
  /// Runs one op into the workload's output buffers. Each call into a
  /// library layer is wrapped in a span when `tracer` is non-null.
  virtual void run_op(egemm::gemm::GemmContext& ctx, Tracer* tracer) = 0;
  virtual std::uint64_t output_hash() const = 0;
  /// Copies the current outputs aside as the run's reference op.
  virtual void keep_reference() = 0;
  /// Checks the reference outputs against the oracles (never timed).
  virtual CheckResult check_reference(egemm::gemm::GemmContext& ctx) = 0;

  /// Sum of 2*m*n*k over requested_gemms().
  std::uint64_t useful_flops() const;
  /// requested_gemms() without repeats, in first-use order.
  std::vector<Shape> distinct_shapes() const;
};

/// Workload names, in BENCHMARK.json order.
std::span<const std::string_view> workload_names() noexcept;

/// The named workload, or nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// Replays the GEMMs of the apps_solve workload's last op on random data of
/// the same shapes and schemes (the GEMM share of the app time). `apps`
/// must be an apps_solve workload that has run at least one op.
void replay_app_gemms(Workload& apps, egemm::gemm::GemmContext& ctx,
                      Tracer* tracer);

/// Lloyd iterations the apps_solve workload's last kMeans solve ran.
int kmeans_iterations(const Workload& apps);

}  // namespace perfbench
