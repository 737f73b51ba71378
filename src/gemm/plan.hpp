#pragma once
// Plan-once / execute-many GEMM (DESIGN.md §13).
//
// The repository's iterative callers (kMeans/kNN Lloyd loops, the fuzz
// harness, the benchmarks) run the same (m, n, k) GEMM hundreds of times,
// yet the one-shot entry points re-derive the tile configuration,
// re-allocate split planes and packed tile buffers, and re-size the output
// on every call. Production GEMM stacks (cuBLAS handles, cuDNN execution
// plans) separate *planning* from *execution*; this layer adopts that
// architecture:
//
//   GemmPlan     an immutable, fully-normalized execution recipe for one
//                (shape, options, backend): split method, plane count, the
//                ordered split-product combos, engine, and the tile
//                configuration resolved through the §6 analytic solver.
//                execute(ctx, A, B, C, D) runs it into a caller-owned D
//                with zero per-call heap allocation once the leased
//                workspace has warmed up (guarded in debug builds).
//   GemmContext  owns the reusable workspaces (LIFO free list, so
//                back-to-back same-shape calls get the same warm buffers)
//                and an LRU plan cache keyed by the normalized recipe.
//                Cache behaviour is observable as the gemm.plan.{hit,miss}
//                counters and a "plan" span around plan construction.
//
// The one-shot APIs (egemm_multiply, emulated_gemm, run_gemm, gemm_ex)
// are thin wrappers over default_context(), so every caller shares one
// warm cache unless it opts into its own context. Both engines remain
// bit-identical: a plan executes the exact operation sequence of the
// pre-plan code paths.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/scheme.hpp"
#include "core/split.hpp"
#include "gemm/gemm_api.hpp"
#include "gemm/matrix.hpp"
#include "gemm/packing.hpp"
#include "gemm/tiling.hpp"
#include "tcsim/gpu_spec.hpp"

namespace egemm::gemm {

class GemmContext;

/// A split-product term over arbitrary plane stacks: multiply A-plane
/// `a_plane` by B-plane `b_plane`. Plane 0 is always the lowest-order
/// plane (lo; for three-way splits: lo, mid, hi).
struct PlaneCombo {
  int a_plane;
  int b_plane;

  friend bool operator==(const PlaneCombo&, const PlaneCombo&) = default;
};

/// Most combos a plan can carry (the cache key packs the ordered sequence
/// into 4 bits per combo; order is numerically significant, so the key
/// must preserve it, not just the set).
inline constexpr std::size_t kMaxPlanCombos = 16;

/// The normalized identity of a plan: problem shape plus every knob that
/// changes the executed operation sequence. Two requests with equal keys
/// are interchangeable by construction, which is what makes the LRU cache
/// sound.
struct PlanKey {
  std::size_t m = 0, n = 0, k = 0;
  Backend backend = Backend::kEgemmTC;  ///< timing dispatch + direct target
  bool direct = false;  ///< plain binary32 path, no plane decomposition
  core::SplitMethod split = core::SplitMethod::kRoundSplit;
  ExecEngine engine = ExecEngine::kPacked;
  ComboOrder order = ComboOrder::kFusedPerTile;
  std::uint8_t planes = 2;
  std::uint8_t combo_count = 0;
  std::uint64_t combo_seq = 0;  ///< ordered combos, 4 bits each
  /// The core::SchemeId this recipe realizes on the emulation-precision
  /// ladder, or -1 for direct backends and custom recipes that match no
  /// named rung. Derived from (split, planes, combos) at key construction;
  /// carried in the key so scheme identity is part of the cached plan's
  /// observable contract (obs counters, plan introspection).
  std::int8_t scheme = -1;
  int bm = 0, bn = 0, bk = 0, wm = 0, wn = 0, wk = 0;  ///< resolved tile

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept;
};

/// Reusable per-call scratch owned by a GemmContext: the split planes of A
/// and B plus the tile-packed copies the packed engine streams. ensure()
/// and pack() only ever grow storage; in debug builds every actual growth
/// bumps the process-wide counter below, which is how the reuse guard test
/// proves a warm execute() allocates nothing.
class Workspace {
 public:
  /// Grows (never shrinks) the plane matrices to fit `planes` split planes
  /// of an (m x k) x (k x n) problem.
  void ensure(std::size_t m, std::size_t n, std::size_t k, int planes);

  std::span<Matrix> a_planes() noexcept { return {ap_.data(), count_}; }
  std::span<Matrix> b_planes() noexcept { return {bp_.data(), count_}; }
  std::span<const Matrix> a_planes() const noexcept {
    return {ap_.data(), count_};
  }
  std::span<const Matrix> b_planes() const noexcept {
    return {bp_.data(), count_};
  }

  /// Repacks the current planes into the tile-blocked buffers in place.
  void pack();
  const PackedPlanesA& packed_a() const noexcept { return apack_; }
  const PackedPlanesB& packed_b() const noexcept { return bpack_; }

 private:
  std::size_t count_ = 0;
  std::vector<Matrix> ap_, bp_;
  PackedPlanesA apack_;
  PackedPlanesB bpack_;
};

/// Work threshold (in m*n*k multiply-adds) below which a single GEMM
/// executes inline on the calling thread instead of dispatching to the
/// pool: under ~64^3 the per-GEMM 2D schedule produces more chunks than
/// useful work per chunk, so the pool round-trip costs more than it buys.
/// The effective value is, in order: the last set_ value (when nonzero),
/// the loaded tuning file's small_gemm_inline_threshold
/// (model/tuning_cache.hpp), else 64^3. Set 1 to never inline.
std::size_t small_gemm_inline_threshold() noexcept;

/// Overrides the threshold process-wide; 0 restores the automatic value
/// (tuning file, else the 64^3 default).
void set_small_gemm_inline_threshold(std::size_t work) noexcept;

/// Process-wide count of workspace buffer growths. Debug builds only: in
/// NDEBUG builds the accounting compiles out and this always returns 0
/// (gate tests on debug_workspace_accounting()).
std::uint64_t debug_workspace_allocations() noexcept;

/// True when the build performs the allocation accounting above.
constexpr bool debug_workspace_accounting() noexcept {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

/// RAII lease of a context-owned workspace; returns it to the context's
/// free list on destruction.
class WorkspaceLease {
 public:
  WorkspaceLease(WorkspaceLease&& other) noexcept;
  WorkspaceLease& operator=(WorkspaceLease&&) = delete;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  ~WorkspaceLease();

  Workspace& operator*() noexcept { return *ws_; }
  Workspace* operator->() noexcept { return ws_.get(); }

 private:
  friend class GemmContext;
  WorkspaceLease(GemmContext* ctx, std::unique_ptr<Workspace> ws) noexcept
      : ctx_(ctx), ws_(std::move(ws)) {}

  GemmContext* ctx_ = nullptr;
  std::unique_ptr<Workspace> ws_;
};

/// An immutable execution recipe, created once per (shape, options,
/// backend) by a GemmContext and shared via the cache. Thread-safe to
/// execute concurrently (all mutable state lives in the leased workspace
/// and the caller-owned D).
class GemmPlan {
 public:
  std::size_t m() const noexcept { return key_.m; }
  std::size_t n() const noexcept { return key_.n; }
  std::size_t k() const noexcept { return key_.k; }
  /// True for plain binary32 backends (no plane decomposition).
  bool direct() const noexcept { return key_.direct; }
  /// The backend the recipe was normalized from (timing dispatch target).
  Backend backend() const noexcept { return key_.backend; }
  ExecEngine engine() const noexcept { return key_.engine; }
  ComboOrder order() const noexcept { return key_.order; }
  core::SplitMethod split() const noexcept { return key_.split; }
  int planes() const noexcept { return key_.planes; }
  /// The emulation-ladder rung this plan realizes (core/scheme.hpp), when
  /// its recipe matches one; nullopt for direct backends and custom
  /// emulated recipes.
  std::optional<core::SchemeId> scheme_id() const noexcept {
    if (key_.direct || key_.scheme < 0) return std::nullopt;
    return static_cast<core::SchemeId>(key_.scheme);
  }
  std::span<const PlaneCombo> combos() const noexcept { return combos_; }
  /// Tile configuration after consulting the tuning cache (DESIGN.md §18)
  /// and then the §6 analytic solver.
  const TileConfig& tile() const noexcept { return tile_; }
  /// Scheduler grain (output tiles per 2D block) from the tuning cache;
  /// 0 = the pool's default heuristic. Scheduling only -- results are
  /// bit-identical for every grain, so it is not part of the plan key.
  std::size_t schedule_grain() const noexcept { return grain_; }
  /// Steady-state workspace footprint of one execute() (planes + packs).
  std::size_t workspace_bytes() const noexcept { return workspace_bytes_; }
  const PlanKey& key() const noexcept { return key_; }

  /// Runs the plan: D = A x B (+ C) into caller-owned `d` (resized in
  /// place). A/B/C extents must match the planned shape. Emulated plans
  /// run as a one-item group through the same pipeline as
  /// GemmContext::execute_grouped (DESIGN.md §13). Allocation-free once
  /// `d` and the context's workspace pool have warmed up.
  void execute(GemmContext& ctx, const Matrix& a, const Matrix& b,
               const Matrix* c, Matrix& d) const;

  /// Simulated execution time on `spec` for the planned shape, dispatched
  /// like time_gemm. Custom emulated recipes (plan_emulated) are modeled
  /// as the Alg. 1 EGEMM schedule. Requires a non-degenerate shape.
  KernelTiming timing(const tcsim::GpuSpec& spec) const;

 private:
  friend class GemmContext;
  GemmPlan(const PlanKey& key, std::size_t grain);

  PlanKey key_;
  TileConfig tile_;
  std::vector<PlaneCombo> combos_;
  std::size_t workspace_bytes_ = 0;
  std::size_t grain_ = 0;
};

/// One item of a grouped execute (GemmContext::execute_grouped): a planned
/// GEMM plus its operands. Plans may mix shapes, schemes, and engines
/// freely; direct-backend items fall back to a per-item execute.
struct GroupedGemm {
  std::shared_ptr<const GemmPlan> plan;
  const Matrix* a = nullptr;
  const Matrix* b = nullptr;
  const Matrix* c = nullptr;  ///< optional accumulator input
  Matrix* d = nullptr;        ///< caller-owned output, resized in place
};

/// Owns the plan cache and the workspace pool. Create one per long-lived
/// pipeline (or use default_context()); all members are thread-safe.
class GemmContext {
 public:
  static constexpr std::size_t kDefaultPlanCapacity = 64;

  explicit GemmContext(std::size_t plan_capacity = kDefaultPlanCapacity);
  GemmContext(const GemmContext&) = delete;
  GemmContext& operator=(const GemmContext&) = delete;

  /// Plan for a Table 5 backend: normalizes (backend, opts) into the
  /// recipe the backend's one-shot path executes. For Backend::kEgemmTC,
  /// opts.emulation_instructions selects Alg. 1 (4) or the three-way-split
  /// ablation (9); other emulated backends ignore the EGEMM-specific
  /// options except the engine.
  std::shared_ptr<const GemmPlan> plan(Backend backend, std::size_t m,
                                       std::size_t n, std::size_t k,
                                       const EgemmOptions& opts = {});

  /// Plan for a custom emulated recipe (the generalized emulated_gemm):
  /// `combos` is the ordered split-product sequence over `planes` planes.
  std::shared_ptr<const GemmPlan> plan_emulated(
      std::size_t m, std::size_t n, std::size_t k, core::SplitMethod split,
      std::span<const PlaneCombo> combos, ComboOrder order,
      ExecEngine engine = ExecEngine::kPacked, int planes = 2,
      const TileConfig& tile = table4_config());

  /// Convenience: plan (cached) + execute in one call.
  Matrix run(Backend backend, const Matrix& a, const Matrix& b,
             const Matrix* c = nullptr, const EgemmOptions& opts = {});

  /// Plan a named rung of the emulation-precision ladder
  /// (core/scheme.hpp) for the shape: the canonical executable recipe
  /// whose plan classifies back to `scheme` (plan->scheme_id()).
  std::shared_ptr<const GemmPlan> plan_scheme(
      core::SchemeId scheme, std::size_t m, std::size_t n, std::size_t k,
      ExecEngine engine = ExecEngine::kPacked,
      const TileConfig& tile = table4_config());

  /// plan_scheme + execute in one call.
  Matrix run_scheme(core::SchemeId scheme, const Matrix& a, const Matrix& b,
                    const Matrix* c = nullptr,
                    ExecEngine engine = ExecEngine::kPacked);

  /// A resolved accuracy contract: the per-rung bound table plus (when
  /// feasible) the plan for the cheapest provably sufficient rung.
  struct ContractPlan {
    core::ContractResolution resolution;
    std::shared_ptr<const GemmPlan> plan;  ///< null when infeasible
  };

  /// Resolves an accuracy contract for D = A x B (+ C) at the given shape
  /// and plans the selected scheme. The contract's scales must be the
  /// caller's element-magnitude context (max |A|, max |B|, max |C|); this
  /// layer cannot derive them from data -- gemm_ex's contract overload
  /// can. When no rung meets the target, `plan` is null and
  /// resolution.feasible is false (no throw: planning is noexcept-ish by
  /// convention; the executing APIs raise the error).
  ContractPlan plan_contract(std::size_t m, std::size_t n, std::size_t k,
                             const core::AccuracyContract& contract,
                             ExecEngine engine = ExecEngine::kPacked);

  /// Executes a batch of planned GEMMs through the one execute pipeline
  /// (DESIGN.md §13, §18). Many items run as ONE flattened (item x tile)
  /// task stream: per-item prep (split, output init, pack) runs parallel
  /// over items, then every output tile of every item enters a single
  /// pool dispatch with a batch-aware grain, so small items no longer
  /// serialize behind each other. Results are bit-identical to
  /// calling item.plan->execute() in a loop (each output tile runs the
  /// exact same operation sequence; only the schedule changes). Per-call
  /// telemetry deposits one CallRecord per shape class, tagged with a
  /// process-unique batch id and the class's item count.
  void execute_grouped(std::span<const GroupedGemm> items);

  /// Leases a warm workspace (LIFO, so repeated same-shape calls reuse the
  /// same buffers). execute() does this internally.
  WorkspaceLease lease_workspace();

  std::uint64_t plan_hits() const noexcept;
  std::uint64_t plan_misses() const noexcept;
  /// Plans evicted from the LRU since construction (also the process-wide
  /// gemm.plan.cache.evictions counter and the gemm.plan.cache.{size,
  /// capacity} gauges, last-writing context wins on the gauges).
  std::uint64_t plan_evictions() const noexcept;
  std::size_t cached_plans() const noexcept;
  std::size_t plan_capacity() const noexcept { return capacity_; }
  std::size_t pooled_workspaces() const noexcept;

 private:
  friend class WorkspaceLease;

  std::shared_ptr<const GemmPlan> plan_for(const PlanKey& key,
                                           std::size_t grain);
  void recycle(std::unique_ptr<Workspace> ws);

  struct CacheEntry {
    PlanKey key;
    std::shared_ptr<const GemmPlan> plan;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::unordered_map<PlanKey, std::list<CacheEntry>::iterator, PlanKeyHash>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;

  mutable std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> free_workspaces_;
};

/// The process-wide context behind the one-shot APIs.
GemmContext& default_context();

}  // namespace egemm::gemm
