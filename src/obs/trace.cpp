#include "obs/trace.hpp"

#include <algorithm>
#include <memory>
#include <mutex>

namespace egemm::obs {

namespace {

/// Hard cap per thread so a forgotten set_tracing(false) in a long-running
/// process degrades to dropped events, not unbounded memory. Runtime-
/// adjustable (set_trace_buffer_capacity) so tests can exercise the drop
/// path cheaply.
constexpr std::size_t kDefaultMaxEventsPerThread = std::size_t{1} << 20;
std::atomic<std::size_t> g_max_events{kDefaultMaxEventsPerThread};

struct TraceBuffer {
  std::mutex mutex;  ///< serializes owner appends vs. collector reads
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
  std::string name;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
};

TraceState& state() {
  // Never destroyed: pool workers reach this lazily, after global_pool()
  // exists, so a static local would be torn down under a live worker at
  // exit.
  static TraceState& instance = *new TraceState;
  return instance;
}

std::atomic<std::uint64_t> g_dropped{0};

thread_local std::shared_ptr<TraceBuffer> tl_buffer;

TraceBuffer& thread_buffer() {
  if (!tl_buffer) {
    auto buffer = std::make_shared<TraceBuffer>();
    buffer->tid = current_thread_id();
    buffer->name = "thread-" + std::to_string(buffer->tid);
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.buffers.push_back(buffer);
    tl_buffer = std::move(buffer);
  }
  return *tl_buffer;
}

}  // namespace

namespace detail {

std::atomic<bool> tracing_flag{false};

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  TraceBuffer& buffer = thread_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= g_max_events.load(std::memory_order_relaxed)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    EGEMM_COUNTER_ADD("trace.dropped_spans", 1);
    return;
  }
  buffer.events.push_back(TraceEvent{
      name, start_ns, end_ns >= start_ns ? end_ns - start_ns : 0,
      buffer.tid});
}

}  // namespace detail

std::uint32_t current_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

void set_thread_name(std::string name) {
  if constexpr (!kEnabled) return;
  TraceBuffer& buffer = thread_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.name = std::move(name);
}

void set_tracing(bool enabled) noexcept {
  if constexpr (kEnabled) {
    detail::tracing_flag.store(enabled, std::memory_order_relaxed);
  } else {
    static_cast<void>(enabled);
  }
}

std::vector<TraceEvent> collect_trace() {
  std::vector<TraceEvent> merged;
  TraceState& s = state();
  const std::lock_guard<std::mutex> state_lock(s.mutex);
  for (const auto& buffer : s.buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return merged;
}

std::vector<std::pair<std::uint32_t, std::string>> trace_thread_names() {
  std::vector<std::pair<std::uint32_t, std::string>> names;
  TraceState& s = state();
  const std::lock_guard<std::mutex> state_lock(s.mutex);
  for (const auto& buffer : s.buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    if (!buffer->events.empty()) {
      names.emplace_back(buffer->tid, buffer->name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t dropped_trace_events() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

void set_trace_buffer_capacity(std::size_t cap) noexcept {
  g_max_events.store(cap == 0 ? kDefaultMaxEventsPerThread : cap,
                     std::memory_order_relaxed);
}

void clear_trace() {
  TraceState& s = state();
  const std::lock_guard<std::mutex> state_lock(s.mutex);
  for (const auto& buffer : s.buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

}  // namespace egemm::obs
