#pragma once
// Benchmark-side span tracing. Every span wraps one call from the
// benchmark into a library layer's public function; nothing inside the
// library is instrumented. Spans are kept in memory and written out once,
// when the run ends, as Chrome trace_event JSON.
//
// One caller thread records (the benchmark's closed loop is single-caller);
// spans nest strictly, and closing out of order is a harness bug that
// throws.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

std::uint64_t now_ns() noexcept;

class Tracer {
 public:
  struct Record {
    const char* name;  ///< static-storage string
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = root
    std::uint64_t start_ns;
    std::uint64_t end_ns;  ///< 0 while open
  };

  /// Per-name roll-up; self time excludes the part covered by child spans.
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Opens a span under the innermost open one; returns its id (>= 1).
  std::uint32_t open(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void close(std::uint32_t id);

  const std::vector<Record>& records() const noexcept { return records_; }
  std::size_t open_depth() const noexcept { return stack_.size(); }

  std::map<std::string, Totals> totals() const;
  /// Durations (ns) of every closed span called `name`, in start order.
  std::vector<double> durations_ns(std::string_view name) const;

  /// Writes the spans as Chrome trace JSON; `other_json` is a JSON object
  /// embedded as "otherData". Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::string& other_json) const;

 private:
  std::vector<Record> records_;
  std::vector<std::uint32_t> stack_;  ///< ids of open spans, innermost last
};

/// RAII span; a null tracer records nothing (the untraced phase).
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
