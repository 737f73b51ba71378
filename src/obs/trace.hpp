#pragma once
// Scoped span tracing (DESIGN.md §12): RAII spans record per-stage
// durations with small stable thread ids into per-thread buffers, exported
// as Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).
//
// Recording is opt-in at runtime (set_tracing(true)); a span whose
// lifetime sees tracing disabled costs one relaxed atomic load and no
// clock read. With EGEMM_OBSERVABILITY=OFF the EGEMM_TRACE_SCOPE macro
// compiles to nothing and ScopedSpan is an empty type.
//
// Spans nest naturally: the Chrome "X" (complete) event encoding carries
// begin + duration, so overlapping spans on one thread render as a stack.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace egemm::obs {

/// Small dense id for the calling thread (assigned on first use, starts at
/// 1); doubles as the Chrome trace "tid".
std::uint32_t current_thread_id() noexcept;

/// Names the calling thread's trace track ("main", "pool-worker-3", ...).
void set_thread_name(std::string name);

void set_tracing(bool enabled) noexcept;

namespace detail {
extern std::atomic<bool> tracing_flag;
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns);
}  // namespace detail

inline bool tracing_enabled() noexcept {
  return detail::tracing_flag.load(std::memory_order_relaxed);
}

/// Nanoseconds since the first observability clock read in this process
/// (keeps Chrome trace timestamps small).
inline std::uint64_t monotonic_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

struct TraceEvent {
  const char* name;  ///< static-storage string (macro passes literals)
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t tid;
};

/// All recorded events, merged across threads and sorted by start time.
/// Call at quiescence (tracing disabled or all instrumented work joined).
std::vector<TraceEvent> collect_trace();

/// (tid, name) pairs for every thread that recorded at least one event.
std::vector<std::pair<std::uint32_t, std::string>> trace_thread_names();

/// Events discarded because a thread hit its buffer cap. Every drop also
/// bumps the `trace.dropped_spans` registry counter, so the loss is
/// visible in the text/JSON/OpenMetrics exporters, not only through this
/// accessor.
std::uint64_t dropped_trace_events() noexcept;

/// Overrides the per-thread span buffer cap (0 restores the built-in
/// default). Test hook for exercising the drop path without recording a
/// million spans; applies to buffers from the next append on.
void set_trace_buffer_capacity(std::size_t cap) noexcept;

/// Drops all recorded events and the dropped-event count.
void clear_trace();

#if EGEMM_OBSERVABILITY_ENABLED

/// RAII span: records [construction, destruction) under `name` when
/// tracing was enabled at construction (a null `name` records no span).
/// `name` must outlive the trace (pass a string literal). When `sink` is
/// non-null the scope's elapsed nanoseconds are also added to `*sink` --
/// the GEMM pipeline's stage clock (DESIGN.md §17). One clock pair serves
/// both; with neither wanted the scope reads no clock.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t* sink = nullptr) noexcept
      : sink_(sink) {
    if (tracing_enabled()) name_ = name;
    if (name_ != nullptr || sink_ != nullptr) start_ns_ = monotonic_ns();
  }
  ~ScopedSpan() {
    if (name_ == nullptr && sink_ == nullptr) return;
    const std::uint64_t end_ns = monotonic_ns();
    if (sink_ != nullptr) *sink_ += end_ns - start_ns_;
    if (name_ != nullptr) detail::record_span(name_, start_ns_, end_ns);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t* sink_;
  std::uint64_t start_ns_ = 0;
};

#define EGEMM_TRACE_SCOPE(name)                                       \
  const ::egemm::obs::ScopedSpan EGEMM_OBS_CONCAT(egemm_obs_span_,    \
                                                  __LINE__) {         \
    name                                                              \
  }

#else  // EGEMM_OBSERVABILITY_ENABLED

/// Disabled build: empty type (the sink is never written), macro compiles
/// to nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char*, std::uint64_t* = nullptr) noexcept {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

#define EGEMM_TRACE_SCOPE(name) static_cast<void>(0)

#endif  // EGEMM_OBSERVABILITY_ENABLED

}  // namespace egemm::obs
