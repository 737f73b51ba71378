#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Tracer::open(const char* name) {
  const auto id = static_cast<std::uint32_t>(records_.size() + 1);
  records_.push_back(
      Record{name, id, stack_.empty() ? 0u : stack_.back(), now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("span closed out of nesting order");
  }
  records_[id - 1].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> out;
  std::vector<std::uint64_t> child_ns(records_.size() + 1, 0);
  for (const Record& r : records_) {
    if (r.end_ns != 0 && r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  for (const Record& r : records_) {
    if (r.end_ns == 0) continue;
    Totals& t = out[r.name];
    const std::uint64_t dur = r.end_ns - r.start_ns;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > child_ns[r.id] ? dur - child_ns[r.id] : 0;
  }
  return out;
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.end_ns != 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns));
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& other_json) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << other_json
      << ",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Record& r : records_) {
    if (r.end_ns == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                  first ? "" : ",", r.name,
                  static_cast<double>(r.start_ns - t0) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.id,
                  r.parent);
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  try {
    tracer_->close(id_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::abort();
  }
}

}  // namespace perfbench
