#include "obs/callrec.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <tuple>

#include "obs/export.hpp"

namespace egemm::obs {

namespace {

/// Ring capacity per producing thread (power of two; ~1.5 MiB of records).
/// Only threads that execute GEMMs allocate a ring. Full ring -> the new
/// record is dropped, same cap semantics as the trace buffers.
constexpr std::size_t kRingCapacity = std::size_t{1} << 14;
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0);

struct CallRing {
  /// Producer-owned: next slot to write. Release-stored after the slot
  /// write so a consumer's acquire load sees the record fully formed.
  std::atomic<std::uint64_t> head{0};
  /// Consumer-owned: next slot to read. Release-stored after the slot
  /// reads so the producer's acquire load may safely overwrite.
  std::atomic<std::uint64_t> tail{0};
  std::vector<CallRecord> slots{std::vector<CallRecord>(kRingCapacity)};
};

struct RingState {
  std::mutex mutex;  ///< serializes consumers and ring registration
  std::vector<std::shared_ptr<CallRing>> rings;
};

RingState& state() {
  // Never destroyed: pool workers reach this lazily, after global_pool()
  // exists, so a static local would be torn down under a live worker at
  // exit.
  static RingState& instance = *new RingState;
  return instance;
}

std::atomic<bool> g_enabled{true};
std::atomic<std::uint64_t> g_dropped{0};

thread_local std::shared_ptr<CallRing> tl_ring;

CallRing& thread_ring() {
  if (!tl_ring) {
    auto ring = std::make_shared<CallRing>();
    RingState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.rings.push_back(ring);
    tl_ring = std::move(ring);
  }
  return *tl_ring;
}

}  // namespace

bool call_records_enabled() noexcept {
  if constexpr (!kEnabled) return false;
  return g_enabled.load(std::memory_order_relaxed);
}

void set_call_records(bool enabled) noexcept {
  if constexpr (kEnabled) {
    g_enabled.store(enabled, std::memory_order_relaxed);
  } else {
    static_cast<void>(enabled);
  }
}

void record_call(const CallRecord& rec) {
  if constexpr (!kEnabled) {
    static_cast<void>(rec);
    return;
  }
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  CallRing& ring = thread_ring();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring.tail.load(std::memory_order_acquire);
  if (head - tail >= kRingCapacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    EGEMM_COUNTER_ADD("callrec.dropped", 1);
    return;
  }
  ring.slots[head & (kRingCapacity - 1)] = rec;
  ring.head.store(head + 1, std::memory_order_release);
}

std::vector<CallRecord> drain_call_records() {
  std::vector<CallRecord> out;
  if constexpr (!kEnabled) return out;
  RingState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& ring : s.rings) {
    const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    for (std::uint64_t i = tail; i != head; ++i) {
      out.push_back(ring->slots[i & (kRingCapacity - 1)]);
    }
    ring->tail.store(head, std::memory_order_release);
  }
  return out;
}

std::uint64_t dropped_call_records() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

void clear_call_records() {
  drain_call_records();
  g_dropped.store(0, std::memory_order_relaxed);
}

CallSummary summarize_calls(std::span<const CallRecord> records) {
  CallSummary summary;
  summary.records = records.size();
  summary.dropped = dropped_call_records();
  const auto key_of = [](const CallClassSummary& c) {
    return std::make_tuple(c.m, c.n, c.k, c.batch, c.scheme, c.backend,
                           c.engine, c.isa);
  };
  for (const CallRecord& rec : records) {
    CallClassSummary* cls = nullptr;
    const auto key = std::make_tuple(rec.m, rec.n, rec.k, rec.batch,
                                     rec.scheme, rec.backend, rec.engine,
                                     rec.isa);
    for (CallClassSummary& existing : summary.classes) {
      if (key_of(existing) == key) {
        cls = &existing;
        break;
      }
    }
    if (cls == nullptr) {
      CallClassSummary fresh;
      fresh.m = rec.m;
      fresh.n = rec.n;
      fresh.k = rec.k;
      fresh.batch = rec.batch;
      fresh.scheme = rec.scheme;
      fresh.backend = rec.backend;
      fresh.engine = rec.engine;
      fresh.isa = rec.isa;
      summary.classes.push_back(fresh);
      cls = &summary.classes.back();
    }
    ++cls->calls;
    cls->gemms += rec.batch;
    if (rec.batch_id != 0) ++cls->batched_records;
    if (rec.lookup == PlanLookup::kHit) ++cls->plan_hits;
    if (rec.lookup == PlanLookup::kMiss) ++cls->plan_misses;
    cls->total_ns += rec.total_ns;
    cls->split_ns += rec.split_ns;
    cls->pack_ns += rec.pack_ns;
    cls->mma_ns += rec.mma_ns;
    cls->combine_ns += rec.combine_ns;
    cls->flops += rec.flops;
    cls->bytes_moved += rec.bytes_moved;
    cls->latency.record(rec.total_ns);
  }
  std::sort(summary.classes.begin(), summary.classes.end(),
            [&key_of](const CallClassSummary& a, const CallClassSummary& b) {
              return key_of(a) < key_of(b);
            });
  return summary;
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_name_field(std::string& out, const char* key, const char* name) {
  if (name == nullptr) return;
  out += ", \"";
  out += key;
  out += "\": \"";
  append_json_escaped(out, name);
  out += '"';
}

}  // namespace

std::string call_summary_json_block(const CallSummary& summary,
                                    const std::string& indent,
                                    const CallJsonNames& names) {
  std::string out = "{\n";
  out += indent;
  out += "  \"records\": ";
  append_u64(out, summary.records);
  out += ",\n";
  out += indent;
  out += "  \"dropped\": ";
  append_u64(out, summary.dropped);
  out += ",\n";
  out += indent;
  out += "  \"classes\": [";
  for (std::size_t i = 0; i < summary.classes.size(); ++i) {
    const CallClassSummary& cls = summary.classes[i];
    out += i == 0 ? "\n" : ",\n";
    out += indent;
    out += "    {\"m\": ";
    append_u64(out, cls.m);
    out += ", \"n\": ";
    append_u64(out, cls.n);
    out += ", \"k\": ";
    append_u64(out, cls.k);
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  ", \"scheme\": %d, \"backend\": %u, \"engine\": %u, "
                  "\"isa\": %u",
                  static_cast<int>(cls.scheme),
                  static_cast<unsigned>(cls.backend),
                  static_cast<unsigned>(cls.engine),
                  static_cast<unsigned>(cls.isa));
    out += buf;
    if (names.scheme != nullptr) {
      append_name_field(out, "scheme_name", names.scheme(cls.scheme));
    }
    if (names.backend != nullptr) {
      append_name_field(out, "backend_name", names.backend(cls.backend));
    }
    if (names.engine != nullptr) {
      append_name_field(out, "engine_name", names.engine(cls.engine));
    }
    if (names.isa != nullptr) {
      append_name_field(out, "isa_name", names.isa(cls.isa));
    }
    out += ",\n";
    out += indent;
    out += "     \"calls\": ";
    append_u64(out, cls.calls);
    out += ", \"batch\": ";
    append_u64(out, cls.batch);
    out += ", \"gemms\": ";
    append_u64(out, cls.gemms);
    out += ", \"batched_records\": ";
    append_u64(out, cls.batched_records);
    out += ", \"plan_hits\": ";
    append_u64(out, cls.plan_hits);
    out += ", \"plan_misses\": ";
    append_u64(out, cls.plan_misses);
    out += ", \"flops\": ";
    append_u64(out, cls.flops);
    out += ", \"bytes_moved\": ";
    append_u64(out, cls.bytes_moved);
    out += ",\n";
    out += indent;
    out += "     \"total_ns\": ";
    append_u64(out, cls.total_ns);
    out += ", \"split_ns\": ";
    append_u64(out, cls.split_ns);
    out += ", \"pack_ns\": ";
    append_u64(out, cls.pack_ns);
    out += ", \"mma_ns\": ";
    append_u64(out, cls.mma_ns);
    out += ", \"combine_ns\": ";
    append_u64(out, cls.combine_ns);
    out += ",\n";
    out += indent;
    out += "     \"gflops\": ";
    append_double(out, cls.gflops());
    out += ", \"stage_coverage\": ";
    append_double(out, cls.stage_coverage());
    out += ", \"p50_ns\": ";
    append_u64(out, cls.latency.quantile(0.50));
    out += ", \"p90_ns\": ";
    append_u64(out, cls.latency.quantile(0.90));
    out += ", \"p99_ns\": ";
    append_u64(out, cls.latency.quantile(0.99));
    out += ", \"p999_ns\": ";
    append_u64(out, cls.latency.quantile(0.999));
    out += "}";
  }
  out += summary.classes.empty() ? "]\n" : "\n" + indent + "  ]\n";
  out += indent;
  out += "}";
  return out;
}

}  // namespace egemm::obs
