#include "obs/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace egemm::obs {

namespace detail {

thread_local SlotBlock* tl_slots = nullptr;

SlotBlock* acquire_slot_block() {
  Registry& reg = registry();
  auto block = std::make_unique<SlotBlock>();
  SlotBlock* raw = block.get();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex_);
    reg.blocks_.push_back(std::move(block));
  }
  tl_slots = raw;
  return raw;
}

}  // namespace detail

std::uint64_t Counter::value() const noexcept {
  return registry().aggregate(slot_);
}

std::uint64_t Histogram::count() const noexcept {
  return registry().aggregate(
      slot_ + static_cast<std::uint32_t>(kBuckets) + 1);
}

std::uint64_t Histogram::sum() const noexcept {
  return registry().aggregate(slot_ + static_cast<std::uint32_t>(kBuckets));
}

std::uint64_t LatencyHistogram::count() const noexcept {
  return registry().aggregate(
      slot_ + static_cast<std::uint32_t>(kBuckets) + 1);
}

std::uint64_t LatencyHistogram::sum() const noexcept {
  return registry().aggregate(slot_ + static_cast<std::uint32_t>(kBuckets));
}

std::uint32_t Registry::allocate_slots(std::size_t n) {
  // Caller holds mutex_.
  EGEMM_EXPECTS(next_slot_ + n <= detail::kMaxSlots);
  const std::uint32_t base = next_slot_;
  next_slot_ += static_cast<std::uint32_t>(n);
  return base;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Counter& c : counters_) {
    if (c.name_ == name) return c;
  }
  const std::uint32_t slot = allocate_slots(1);
  return counters_.emplace_back(Counter(std::string(name), slot));
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& g : gauges_) {
    if (g->name_ == name) return *g;
  }
  return *gauges_.emplace_back(
      std::unique_ptr<Gauge>(new Gauge(std::string(name))));
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Histogram& h : histograms_) {
    if (h.name_ == name) return h;
  }
  const std::uint32_t slot = allocate_slots(Histogram::kBuckets + 2);
  return histograms_.emplace_back(Histogram(std::string(name), slot));
}

LatencyHistogram& Registry::latency(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (LatencyHistogram& h : latencies_) {
    if (h.name_ == name) return h;
  }
  const std::uint32_t slot = allocate_slots(LatencyHistogram::kBuckets + 2);
  return latencies_.emplace_back(LatencyHistogram(std::string(name), slot));
}

std::uint64_t Registry::aggregate(std::uint32_t slot) const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& block : blocks_) {
    total += block->cells[slot].load(std::memory_order_relaxed);
  }
  return total;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto sum_slot = [&](std::uint32_t slot) {
    std::uint64_t total = 0;
    for (const auto& block : blocks_) {
      total += block->cells[slot].load(std::memory_order_relaxed);
    }
    return total;
  };
  snap.counters.reserve(counters_.size());
  for (const Counter& c : counters_) {
    snap.counters.push_back(CounterSample{c.name_, sum_slot(c.slot_)});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    snap.gauges.push_back(GaugeSample{g->name_, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const Histogram& h : histograms_) {
    HistogramSample sample;
    sample.name = h.name_;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      sample.buckets[b] =
          sum_slot(h.slot_ + static_cast<std::uint32_t>(b));
    }
    sample.sum =
        sum_slot(h.slot_ + static_cast<std::uint32_t>(Histogram::kBuckets));
    sample.count = sum_slot(
        h.slot_ + static_cast<std::uint32_t>(Histogram::kBuckets) + 1);
    snap.histograms.push_back(std::move(sample));
  }
  snap.latencies.reserve(latencies_.size());
  for (const LatencyHistogram& h : latencies_) {
    LatencySample sample;
    sample.name = h.name_;
    sample.buckets.resize(LatencyHistogram::kBuckets);
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      sample.buckets[b] =
          sum_slot(h.slot_ + static_cast<std::uint32_t>(b));
    }
    sample.sum = sum_slot(
        h.slot_ + static_cast<std::uint32_t>(LatencyHistogram::kBuckets));
    sample.count = sum_slot(
        h.slot_ + static_cast<std::uint32_t>(LatencyHistogram::kBuckets) + 1);
    snap.latencies.push_back(std::move(sample));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  std::sort(snap.latencies.begin(), snap.latencies.end(), by_name);
  return snap;
}

void Registry::reset() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& block : blocks_) {
    for (auto& cell : block->cells) {
      cell.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& g : gauges_) {
    g->value_.store(0, std::memory_order_relaxed);
  }
}

Registry& registry() {
  // Never destroyed: pool workers reach this lazily, after global_pool()
  // exists, so a static local would be torn down under a live worker at
  // exit.
  static Registry& instance = *new Registry;
  return instance;
}

}  // namespace egemm::obs
