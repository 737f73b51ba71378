// A warm serial-size GemmPlan::execute makes no heap allocation at all.
// This binary replaces the global operator new with a counting one, so
// the check covers every allocation in the process -- the pipeline's own
// bookkeeping included -- not only the workspace growths that
// debug_workspace_allocations() tracks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace egemm::gemm {
namespace {

TEST(ZeroAlloc, WarmSerialExecuteMakesNoHeapAllocation) {
  constexpr std::size_t kDim = 32;  // well under the inline threshold
  ASSERT_LT(kDim * kDim * kDim, small_gemm_inline_threshold());
  GemmContext ctx;
  const auto plan = ctx.plan_scheme(core::SchemeId::kRound2, kDim, kDim, kDim);
  const Matrix a = random_matrix(kDim, kDim, -1.0f, 1.0f, 11);
  const Matrix b = random_matrix(kDim, kDim, -1.0f, 1.0f, 12);
  Matrix d(kDim, kDim);
  // Warm-up: the workspace, the thread's call-record ring and the metrics
  // slots all grow on first use.
  for (int i = 0; i < 3; ++i) plan->execute(ctx, a, b, nullptr, d);

  constexpr int kCalls = 100;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kCalls; ++i) plan->execute(ctx, a, b, nullptr, d);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u) << "over " << kCalls << " warm calls";
}

}  // namespace
}  // namespace egemm::gemm
