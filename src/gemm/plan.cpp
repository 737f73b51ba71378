#include "gemm/plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "gemm/baselines.hpp"
#include "model/analytic_model.hpp"
#include "model/solver.hpp"
#include "model/tuning_cache.hpp"
#include "obs/callrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/isa.hpp"
#include "tcsim/tensor_core.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace egemm::gemm {

namespace {

constexpr std::size_t kTile = 16;  // wmma primitive extent
static_assert(kTile == kPackTile && kTile == tcsim::kTcM &&
              kTile == tcsim::kTcN);

#ifndef NDEBUG
std::atomic<std::uint64_t> g_workspace_allocations{0};
#endif

void count_workspace_allocation() noexcept {
#ifndef NDEBUG
  g_workspace_allocations.fetch_add(1, std::memory_order_relaxed);
#endif
}

/// Worker-side stage attribution for one pipeline run (DESIGN.md §17).
/// Each walk_blocks call adds its locally accumulated combine time and its
/// own wall clock's remainder as mma -- one relaxed fetch_add pair per walk,
/// read by the issuing thread after the pool join. Walks overlap in time
/// across workers, so the totals are *weights*: the record builder scales
/// the engine wall segment by mma/(mma+combine) to get per-stage
/// nanoseconds that sum to the wall time. The walker takes the accumulator
/// as a nullable pointer so the disabled path costs one predictable branch.
struct StageAccum {
  std::atomic<std::uint64_t> mma{0};
  std::atomic<std::uint64_t> combine{0};
};

/// Thread-local breadcrumb from plan_for to execute: when a caller runs a
/// plan immediately after looking it up (the GemmContext::run / gemm_ex
/// path), the record can say whether that lookup hit the plan cache.
/// Consumed on first use; a plan held across calls reports kUnknown.
thread_local const GemmPlan* tl_last_plan = nullptr;
thread_local obs::PlanLookup tl_last_lookup = obs::PlanLookup::kUnknown;

void note_lookup(const GemmPlan* plan, obs::PlanLookup lookup) noexcept {
  tl_last_plan = plan;
  tl_last_lookup = lookup;
}

obs::PlanLookup take_lookup(const GemmPlan* plan) noexcept {
  if (tl_last_plan != plan) return obs::PlanLookup::kUnknown;
  tl_last_plan = nullptr;
  return std::exchange(tl_last_lookup, obs::PlanLookup::kUnknown);
}

/// One item of the execute pipeline: a planned GEMM, its operands, its
/// leased workspace, and its place in the flattened (item x block) stream.
/// A block is one packed 16x16 output tile or one 16-row reference band;
/// blocks are numbered row-major over row_blocks x col_blocks, and the
/// reference engine has a single band column (none when n == 0).
struct ItemRun {
  const GemmPlan* plan = nullptr;
  const Matrix* a = nullptr;
  const Matrix* b = nullptr;
  const Matrix* c = nullptr;
  Matrix* d = nullptr;
  Workspace* ws = nullptr;
  std::size_t row_blocks = 0;
  std::size_t col_blocks = 0;
  std::size_t block0 = 0;  ///< offset of the item's first block in the stream
  std::uint64_t split_ns = 0;
  std::uint64_t pack_ns = 0;

  std::size_t blocks() const noexcept { return row_blocks * col_blocks; }
};

ItemRun make_run(const GemmPlan& plan, const Matrix& a, const Matrix& b,
                 const Matrix* c, Matrix& d) {
  ItemRun run;
  run.plan = &plan;
  run.a = &a;
  run.b = &b;
  run.c = c;
  run.d = &d;
  run.row_blocks = (plan.m() + kTile - 1) / kTile;
  run.col_blocks = plan.engine() == ExecEngine::kPacked
                       ? (plan.n() + kTile - 1) / kTile
                       : std::min<std::size_t>(plan.n(), 1);
  return run;
}

void expect_operands(const PlanKey& key, const Matrix& a, const Matrix& b,
                     const Matrix* c, const Matrix& d) {
  EGEMM_EXPECTS(a.rows() == key.m && a.cols() == key.k);
  EGEMM_EXPECTS(b.rows() == key.k && b.cols() == key.n);
  EGEMM_EXPECTS(c == nullptr || (c->rows() == key.m && c->cols() == key.n));
  EGEMM_EXPECTS(&a != &d && &b != &d && c != &d);
}

/// NaN canonicalization at the D store, as the modeled hardware does: the
/// Tensor Core emits a canonical quiet NaN, never an input payload. Without
/// this, x86 NaN propagation picks the *first* operand's payload, so the
/// packed and reference engines could return bitwise-different NaNs for the
/// same case purely from compiler register allocation.
inline float canonical_store(float x) noexcept {
  return std::isnan(x) ? std::numeric_limits<float>::quiet_NaN() : x;
}

/// Computes one 16x16 C tile over plane decompositions of A and B:
/// iterates k-tiles and, per the requested order, the split-product
/// combos; every dot runs with Tensor Core accumulation semantics. `acc`
/// is the fp32 accumulator tile.
void compute_c_tile(float acc[kTile][kTile], std::span<const Matrix> ap,
                    std::span<const Matrix> bp, std::size_t i0,
                    std::size_t j0, std::size_t mt, std::size_t nt,
                    std::span<const PlaneCombo> combos, ComboOrder order) {
  const std::size_t k = ap[0].cols();

  auto k_tile_pass = [&](std::size_t k0, const PlaneCombo& combo) {
    const std::size_t kt = std::min(kTile, k - k0);
    // Transpose the B tile plane into a contiguous [j][k] buffer so the
    // inner dot walks unit strides.
    float bt[kTile][kTile];
    const Matrix& bplane = bp[static_cast<std::size_t>(combo.b_plane)];
    for (std::size_t kk = 0; kk < kt; ++kk) {
      const float* brow = bplane.row(k0 + kk) + j0;
      for (std::size_t j = 0; j < nt; ++j) bt[j][kk] = brow[j];
    }
    const Matrix& aplane = ap[static_cast<std::size_t>(combo.a_plane)];
    for (std::size_t i = 0; i < mt; ++i) {
      const float* arow = aplane.row(i0 + i) + k0;
      for (std::size_t j = 0; j < nt; ++j) {
        acc[i][j] = tcsim::tc_dot_f32(arow, bt[j], static_cast<int>(kt),
                                      acc[i][j]);
      }
    }
  };

  if (order == ComboOrder::kFusedPerTile) {
    // Alg. 1: inside each k-tile all combos accumulate before moving on.
    for (std::size_t k0 = 0; k0 < k; k0 += kTile) {
      for (const PlaneCombo& combo : combos) k_tile_pass(k0, combo);
    }
  } else {
    // cuBLAS-TC-Emulation: one full-K GEMM per combo, D re-read between
    // passes (numerically identical to staying in registers, since D is
    // binary32 either way).
    for (const PlaneCombo& combo : combos) {
      for (std::size_t k0 = 0; k0 < k; k0 += kTile) k_tile_pass(k0, combo);
    }
  }
}

/// One 16-row output band (all column tiles) of the scalar reference
/// driver -- the seed's execution path, kept as the semantics oracle the
/// packed engine is pinned against (tests/test_packed_gemm.cpp). Adds the
/// writeback nanoseconds to `combine_ns` when non-null.
void reference_row_block(const ItemRun& run, std::size_t rb,
                         std::uint64_t* combine_ns) {
  Matrix& d = *run.d;
  const std::size_t m = d.rows();
  const std::size_t n = d.cols();
  const std::size_t i0 = rb * kTile;
  const std::size_t mt = std::min(kTile, m - i0);
  for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
    const std::size_t nt = std::min(kTile, n - j0);
    float acc[kTile][kTile];
    for (std::size_t i = 0; i < mt; ++i) {
      for (std::size_t j = 0; j < nt; ++j) {
        acc[i][j] = d.at(i0 + i, j0 + j);
      }
    }
    compute_c_tile(acc, run.ws->a_planes(), run.ws->b_planes(), i0, j0, mt,
                   nt, run.plan->combos(), run.plan->order());
    const obs::ScopedSpan combine("combine", combine_ns);
    for (std::size_t i = 0; i < mt; ++i) {
      for (std::size_t j = 0; j < nt; ++j) {
        d.at(i0 + i, j0 + j) = canonical_store(acc[i][j]);
      }
    }
  }
}

/// k-slab length for the kSeparatePasses combo order. Any EVEN value is
/// bit-identical to any other (pair boundaries stay on even k offsets), so
/// the length is a pure blocking choice: 512 keeps one B slab (512 x 16
/// floats = 32 KiB) L1-resident while the recipe kernel streams it. The
/// kFusedPerTile order is different -- there the slab length is part of
/// the emulation recipe (combos interleave per slab) and stays at the
/// semantic kTile.
constexpr int kSeparateSlab = 512;
static_assert(kSeparateSlab % 2 == 0);

/// One 16x16 output tile of the packed engine (DESIGN.md §10): the whole
/// combo x k-slab recipe runs in ONE dispatched tcsim::mma_tile_recipe call
/// over the workspace's pre-packed planes, so the SIMD variants keep the
/// accumulator in registers across the entire k extent. Per output element
/// the operation sequence is identical to the reference driver, so the
/// result is bit-identical. Adds the writeback nanoseconds to `combine_ns`
/// when non-null.
void packed_tile(const ItemRun& run, std::size_t rb, std::size_t cb,
                 std::uint64_t* combine_ns) {
  Matrix& d = *run.d;
  const PackedPlanesA& apack = run.ws->packed_a();
  const PackedPlanesB& bpack = run.ws->packed_b();
  const std::span<const PlaneCombo> combos = run.plan->combos();
  const std::size_t k = run.plan->k();
  const bool fused = run.plan->order() == ComboOrder::kFusedPerTile;
  const int k_slab = fused ? static_cast<int>(kTile) : kSeparateSlab;
  const std::size_t m = d.rows();
  const std::size_t n = d.cols();
  const auto ncombos = static_cast<int>(combos.size());
  const std::size_t i0 = rb * kTile;
  const std::size_t mt = std::min(kTile, m - i0);
  const std::size_t j0 = cb * kTile;
  const std::size_t nt = std::min(kTile, n - j0);
  const float* a_blocks[kMaxPlanCombos];
  const float* b_blocks[kMaxPlanCombos];
  for (int ci = 0; ci < ncombos; ++ci) {
    a_blocks[ci] = apack.block(
        static_cast<std::size_t>(combos[static_cast<std::size_t>(ci)].a_plane),
        rb);
    b_blocks[ci] = bpack.block(
        static_cast<std::size_t>(combos[static_cast<std::size_t>(ci)].b_plane),
        cb);
    // Warm the first lines of each combo's B block; the recipe kernel
    // prefetches ahead within each stream but cannot see across the combo
    // boundary.
    __builtin_prefetch(b_blocks[ci]);
  }
  // Full 16x16 accumulator; lanes past (mt, nt) compute against the packs'
  // zero padding and are never copied back.
  alignas(64) float acc[kTile][kTile] = {};
  for (std::size_t i = 0; i < mt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      acc[i][j] = d.at(i0 + i, j0 + j);
    }
  }
  if (k > 0) {  // zero-extent K: the tile is the C passthrough
    tcsim::mma_tile_recipe(&acc[0][0], a_blocks, b_blocks, ncombos, k,
                           static_cast<int>(k), k_slab, fused);
  }
  const obs::ScopedSpan combine("combine", combine_ns);
  for (std::size_t i = 0; i < mt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      d.at(i0 + i, j0 + j) = canonical_store(acc[i][j]);
    }
  }
}

/// The one block walker (DESIGN.md §13): runs blocks [rb0, rb1) x [cb0,
/// cb1) of one item on the calling thread and, when `stages` is non-null,
/// adds the walk's combine time and the rest of its wall as mma.
void walk_blocks(const ItemRun& run, std::size_t rb0, std::size_t rb1,
                 std::size_t cb0, std::size_t cb1, StageAccum* stages) {
  std::uint64_t wall = 0;
  std::uint64_t combine = 0;
  std::uint64_t* const combine_ns = stages != nullptr ? &combine : nullptr;
  {
    const obs::ScopedSpan mma("mma", stages != nullptr ? &wall : nullptr);
    if (run.plan->engine() == ExecEngine::kPacked) {
      EGEMM_COUNTER_ADD("egemm.tiles", (rb1 - rb0) * (cb1 - cb0));
      for (std::size_t rb = rb0; rb < rb1; ++rb) {
        for (std::size_t cb = cb0; cb < cb1; ++cb) {
          packed_tile(run, rb, cb, combine_ns);
        }
      }
    } else {
      for (std::size_t rb = rb0; rb < rb1; ++rb) {
        reference_row_block(run, rb, combine_ns);
      }
    }
  }
  if (stages != nullptr) {
    stages->combine.fetch_add(combine, std::memory_order_relaxed);
    stages->mma.fetch_add(wall > combine ? wall - combine : 0,
                          std::memory_order_relaxed);
  }
}

/// Runs blocks [g0, g1) of the flattened (item x block) stream, one
/// walk_blocks call per item row the range touches.
void walk_stream(std::span<const ItemRun> runs, std::size_t g0,
                 std::size_t g1, StageAccum* stages) {
  auto it = std::upper_bound(runs.begin(), runs.end(), g0,
                             [](std::size_t g, const ItemRun& run) {
                               return g < run.block0;
                             }) -
            1;
  for (std::size_t g = g0; g < g1; ++it) {
    const ItemRun& run = *it;
    const std::size_t end = std::min(g1, run.block0 + run.blocks());
    while (g < end) {
      const std::size_t rb = (g - run.block0) / run.col_blocks;
      const std::size_t cb = (g - run.block0) % run.col_blocks;
      const std::size_t cb1 = std::min(run.col_blocks, cb + (end - g));
      walk_blocks(run, rb, rb + 1, cb, cb1, stages);
      g += cb1 - cb;
    }
  }
}

/// Grows `m` to (rows x cols), counting an actual storage growth.
void grow_matrix(Matrix& m, std::size_t rows, std::size_t cols) {
  if (rows * cols > m.capacity()) count_workspace_allocation();
  m.resize(rows, cols);
}

/// The analytic solver's pick over the T4 budget (reproduces Table 4
/// exactly, so this is behavior-neutral by the solver's own tests).
const TileConfig& solver_default_tile() {
  static const TileConfig solved = [] {
    const model::SolverResult result =
        model::solve(model::budget_from_spec(tcsim::tesla_t4()));
    return result.found ? result.best : table4_config();
  }();
  return solved;
}

/// True when `tile` is in the solver's feasible set. A tuned tile is
/// applied only if the analytic model admits it, so a hand-edited tuning
/// file can never smuggle an unschedulable tiling into the plans (debug
/// builds lint every distinct tiling).
bool tile_is_feasible(const TileConfig& tile) {
  static const std::vector<TileConfig> feasible = [] {
    const model::SolverResult result =
        model::solve(model::budget_from_spec(tcsim::tesla_t4()));
    std::vector<TileConfig> tiles;
    tiles.reserve(result.feasible.size());
    for (const model::SolverCandidate& candidate : result.feasible) {
      tiles.push_back(candidate.config);
    }
    return tiles;
  }();
  return std::find(feasible.begin(), feasible.end(), tile) != feasible.end();
}

/// Tile resolution for direct backends and explicit tiles: the analytic
/// solver applies whenever the caller left the tile at the paper's
/// default; an explicitly chosen tile is honored as-is.
TileConfig analytic_tile(const TileConfig& requested) {
  return requested == table4_config() ? solver_default_tile() : requested;
}

/// Tile + scheduler-grain resolution for emulated plans (DESIGN.md §18):
/// an explicitly chosen tile is honored as-is; otherwise the shape class's
/// tuning-cache entry wins (gemm.tune.hit), and absent a usable entry the
/// analytic solver decides (gemm.tune.{miss,fallback} name why not).
struct ResolvedSchedule {
  TileConfig tile;
  std::size_t grain = 0;
};

ResolvedSchedule resolve_schedule(const TileConfig& requested, std::size_t m,
                                  std::size_t n, std::size_t k) {
  if (!(requested == table4_config())) return {requested, 0};
  model::TuningEntry entry;
  if (model::TuningCache::global().lookup(m, n, k, &entry) ==
      model::TuningLookup::kHit) {
    return {tile_is_feasible(entry.tile) ? entry.tile : solver_default_tile(),
            entry.grain};
  }
  return {solver_default_tile(), 0};
}

/// Automatic small-GEMM inline threshold override; 0 = automatic.
std::atomic<std::size_t> g_inline_threshold{0};
constexpr std::size_t kDefaultInlineThreshold = std::size_t{64} * 64 * 64;

/// Process-unique grouped-execute ids for CallRecord::batch_id.
std::atomic<std::uint32_t> g_batch_counter{0};

/// Floor on the FLOPs a flattened-stream chunk should carry: below ~4
/// MFLOP the pool round-trip dominates the chunk. The batch grain is this
/// divided by the stream's mean per-block FLOPs, so batches of tiny items
/// coalesce many items into one task while large items still fan out.
constexpr std::uint64_t kMinChunkFlops = std::uint64_t{1} << 22;

/// Splits A and B into the workspace's plane stacks per the plan's recipe.
/// Plane 0 = lo; for three-way splits: lo, mid, hi.
void split_into_workspace(Workspace& ws, const Matrix& a, const Matrix& b,
                          const PlanKey& key) {
  const std::span<Matrix> ap = ws.a_planes();
  const std::span<Matrix> bp = ws.b_planes();
  if (key.planes == 3) {
    core::split3_span_f32(a.data(), ap[2].data(), ap[1].data(), ap[0].data(),
                          key.split);
    core::split3_span_f32(b.data(), bp[2].data(), bp[1].data(), bp[0].data(),
                          key.split);
  } else {
    core::split_span_f32(a.data(), ap[1].data(), ap[0].data(), key.split);
    core::split_span_f32(b.data(), bp[1].data(), bp[0].data(), key.split);
  }
}

std::uint64_t encode_combos(std::span<const PlaneCombo> combos, int planes) {
  EGEMM_EXPECTS(!combos.empty() && combos.size() <= kMaxPlanCombos);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    EGEMM_EXPECTS(combos[i].a_plane >= 0 && combos[i].a_plane < planes);
    EGEMM_EXPECTS(combos[i].b_plane >= 0 && combos[i].b_plane < planes);
    const std::uint64_t enc =
        (static_cast<std::uint64_t>(combos[i].a_plane) << 2) |
        static_cast<std::uint64_t>(combos[i].b_plane);
    seq |= enc << (4 * i);
  }
  return seq;
}

void set_key_tile(PlanKey& key, const TileConfig& tile) {
  key.bm = tile.bm;
  key.bn = tile.bn;
  key.bk = tile.bk;
  key.wm = tile.wm;
  key.wn = tile.wn;
  key.wk = tile.wk;
}

/// Maps an executable recipe onto the emulation-precision ladder
/// (core/scheme.hpp): the SchemeId whose split method and term grid the
/// recipe realizes, or -1 for custom recipes that match no named rung.
/// PlaneCombo numbers planes from the LOWEST order (plan layer
/// convention); scheme terms number by split depth (0 = hi), so the grid
/// index flips: depth = planes - 1 - plane.
std::int8_t classify_combos(core::SplitMethod split, int planes,
                            std::span<const PlaneCombo> combos) {
  core::SchemeProfile profile;
  profile.split = split;
  if (combos.size() == 1 && combos[0].a_plane == planes - 1 &&
      combos[0].b_plane == planes - 1) {
    // A single hi x hi product consumes raw RN16 numerics: that is the
    // half-only rung regardless of how many planes the key nominally
    // decomposes into (the kCublasTcHalf recipe keeps planes = 2).
    profile.half_only = true;
    profile.planes = 1;
    profile.term_mask = 0x1;
  } else {
    profile.planes = planes;
    profile.term_mask = 0;
    for (const PlaneCombo& combo : combos) {
      profile.set_term(planes - 1 - combo.a_plane, planes - 1 - combo.b_plane,
                       true);
    }
    // A recipe that repeats a combo executes more adds than the rung's
    // bound accounts for; such a recipe is custom, never a named rung.
    if (profile.term_count() != static_cast<int>(combos.size())) return -1;
  }
  const std::optional<core::SchemeId> id = core::classify_scheme(profile);
  return id ? static_cast<std::int8_t>(*id) : std::int8_t{-1};
}

void set_key_recipe(PlanKey& key, core::SplitMethod split,
                    std::span<const PlaneCombo> combos, ComboOrder order,
                    int planes) {
  key.split = split;
  key.order = order;
  key.planes = static_cast<std::uint8_t>(planes);
  key.combo_count = static_cast<std::uint8_t>(combos.size());
  key.combo_seq = encode_combos(combos, planes);
  key.scheme = classify_combos(split, planes, combos);
}

/// Bumps the per-scheme execute counter: gemm.scheme.<name>, with custom
/// recipes landing on gemm.scheme.custom. Static handles, same pattern as
/// the differential runner's per-path counters.
void count_scheme_execute(std::int8_t scheme) {
  if constexpr (obs::kEnabled) {
    static const std::array<obs::Counter*, core::kSchemeCount + 1> counters =
        [] {
          std::array<obs::Counter*, core::kSchemeCount + 1> handles{};
          for (std::size_t s = 0; s < core::kSchemeCount; ++s) {
            handles[s] = &obs::registry().counter(
                std::string("gemm.scheme.") +
                core::scheme_name(static_cast<core::SchemeId>(s)));
          }
          handles[core::kSchemeCount] =
              &obs::registry().counter("gemm.scheme.custom");
          return handles;
        }();
    const std::size_t index = scheme >= 0 ? static_cast<std::size_t>(scheme)
                                          : core::kSchemeCount;
    counters[index]->add(1);
  }
}

/// The one CallRecord builder (DESIGN.md §17). Deposits the
/// egemm.execute.latency sample for the call and one record per shape
/// class (distinct plan) of `runs`. A single call is a class of one with
/// batch_id 0. The call wall and the engine wall segment are apportioned by
/// each class's FLOP share; split/pack are exact per-class sums; the worker
/// weights in `stages` split a class's engine share between mma and
/// combine. Direct backends pass engine_ns 0 and zero weights (total only).
void record_calls(std::span<const ItemRun> runs, std::uint64_t start_ns,
                  std::uint64_t engine_ns, const StageAccum& stages,
                  std::uint32_t batch_id, obs::PlanLookup lookup) {
  const std::uint64_t now = obs::monotonic_ns();
  const std::uint64_t wall = now > start_ns ? now - start_ns : 0;
  EGEMM_LATENCY_RECORD("egemm.execute.latency", wall);
  std::uint64_t total_flops = 0;
  for (const ItemRun& run : runs) {
    total_flops += 2ULL * run.plan->m() * run.plan->n() * run.plan->k();
  }
  const std::uint64_t wm = stages.mma;
  const std::uint64_t wc = stages.combine;
  for (std::size_t h = 0; h < runs.size(); ++h) {
    const GemmPlan* plan = runs[h].plan;
    if (std::any_of(runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(h),
                    [&](const ItemRun& run) { return run.plan == plan; })) {
      continue;  // class already recorded at its first item
    }
    const PlanKey& key = plan->key();
    obs::CallRecord rec;
    rec.start_ns = start_ns;
    std::uint32_t items = 0;
    for (const ItemRun& run : runs.subspan(h)) {
      if (run.plan != plan) continue;
      ++items;
      rec.split_ns += run.split_ns;
      rec.pack_ns += run.pack_ns;
      const std::size_t d_elems = key.m * key.n;
      rec.bytes_moved += (key.m * key.k + key.k * key.n + d_elems +
                          (run.c != nullptr ? d_elems : 0)) *
                             sizeof(float) +
                         plan->workspace_bytes();
    }
    rec.flops = items * 2ULL * key.m * key.n * key.k;
    const double share =
        total_flops == 0 ? static_cast<double>(items) /
                               static_cast<double>(runs.size())
                         : static_cast<double>(rec.flops) /
                               static_cast<double>(total_flops);
    rec.total_ns =
        static_cast<std::uint64_t>(static_cast<double>(wall) * share);
    const auto engine_share = static_cast<std::uint64_t>(
        static_cast<double>(engine_ns) * share);
    if (wm + wc > 0) {
      rec.mma_ns = static_cast<std::uint64_t>(
          static_cast<double>(engine_share) * static_cast<double>(wm) /
          static_cast<double>(wm + wc));
      rec.combine_ns = engine_share - rec.mma_ns;
    } else {
      rec.mma_ns = engine_share;
    }
    rec.m = static_cast<std::uint32_t>(key.m);
    rec.n = static_cast<std::uint32_t>(key.n);
    rec.k = static_cast<std::uint32_t>(key.k);
    rec.tid = obs::current_thread_id();
    rec.batch_id = batch_id;
    rec.batch = items;
    rec.scheme = key.scheme;
    rec.backend = static_cast<std::uint8_t>(key.backend);
    rec.engine = static_cast<std::uint8_t>(key.engine);
    rec.isa = static_cast<std::uint8_t>(simd::active_isa());
    rec.lookup = lookup;
    obs::record_call(rec);
  }
}

/// Plain binary32 backends: no plane pipeline, a total-only record.
void run_direct(const ItemRun& run, obs::PlanLookup lookup) {
  const bool telemetry = obs::call_records_enabled();
  const std::uint64_t t_start = telemetry ? obs::monotonic_ns() : 0;
  switch (run.plan->backend()) {
    case Backend::kCublasFp32:
      sgemm_fp32_into(*run.a, *run.b, run.c, *run.d);
      break;
    case Backend::kSdkFp32:
      EGEMM_EXPECTS(run.c == nullptr);
      sdk_gemm_fp32_into(*run.a, *run.b, *run.d);
      break;
    case Backend::kDekker:
      gemm_dekker_into(*run.a, *run.b, run.c, *run.d);
      break;
    default:
      EGEMM_EXPECTS(!"unreachable direct backend");
      break;
  }
  if (telemetry) {
    record_calls({&run, 1}, t_start, 0, StageAccum{}, 0, lookup);
  }
}

/// Per-item prep: split A and B into the item's workspace (the O(N^2) pass
/// that runs on CUDA cores in the real kernel), initialize D with C (or
/// zeros), and pack the planes for the packed engine.
void prep_item(ItemRun& run, bool telemetry) {
  const PlanKey& key = run.plan->key();
  EGEMM_COUNTER_ADD("egemm.calls", 1);
  count_scheme_execute(key.scheme);
  Workspace& ws = *run.ws;
  ws.ensure(key.m, key.n, key.k, key.planes);
  {
    const obs::ScopedSpan split("split", telemetry ? &run.split_ns : nullptr);
    split_into_workspace(ws, *run.a, *run.b, key);
  }
  run.d->resize(key.m, key.n);
  if (run.c != nullptr) {
    std::copy(run.c->data().begin(), run.c->data().end(),
              run.d->data().begin());
  } else {
    run.d->fill(0.0f);
  }
  if (key.engine == ExecEngine::kPacked) {
    const obs::ScopedSpan pack("pack", telemetry ? &run.pack_ns : nullptr);
    ws.pack();
  }
}

/// The one execute pipeline (DESIGN.md §13, §18): split -> init D -> pack
/// -> block walk -> record, for a group of emulated items. A single
/// GemmPlan::execute is a one-item group (batch_id 0).
///
/// One decision point picks the mode. Serial-fused runs when the stream
/// would run on one thread anyway -- sub-threshold work (sum of m*n*k under
/// small_gemm_inline_threshold()) or a single-worker pool: every item
/// preps and walks back-to-back on ONE recycled workspace, keeping the hot
/// planes resident as a loop of single calls would. Otherwise the dispatch
/// selects on item count: one item preps on the calling thread and walks
/// its tiles on the plan's tuned 2-D schedule; many items lease a
/// workspace each, prep in parallel over items, then walk the whole
/// flattened stream in one pool dispatch with a batch-aware grain.
void run_pipeline(GemmContext& ctx, std::span<ItemRun> runs,
                  std::uint32_t batch_id, obs::PlanLookup lookup) {
  const bool telemetry = obs::call_records_enabled();
  const std::uint64_t t_start = telemetry ? obs::monotonic_ns() : 0;
  StageAccum accum;
  StageAccum* const stages = telemetry ? &accum : nullptr;

  std::uint64_t work = 0;
  std::size_t total_blocks = 0;
  [[maybe_unused]] std::uint64_t split_elements = 0;
  for (ItemRun& run : runs) {
    run.block0 = total_blocks;
    total_blocks += run.blocks();
    work += std::uint64_t{run.plan->m()} * run.plan->n() * run.plan->k();
    split_elements += run.a->data().size() + run.b->data().size();
  }
  [[maybe_unused]] const std::uint64_t split_before =
      core::debug_split_elements();

  const bool serial = work < small_gemm_inline_threshold() ||
                      util::global_pool().size() <= 1;
  WorkspaceLease lease = ctx.lease_workspace();
  std::uint64_t engine_ns = 0;
  if (serial) {
    for (ItemRun& run : runs) {
      run.ws = &*lease;
      prep_item(run, telemetry);
      walk_blocks(run, 0, run.row_blocks, 0, run.col_blocks, stages);
    }
    // Prep and walks interleave; the walks never overlap, so the engine
    // wall is the sum of their walls.
    engine_ns = accum.mma + accum.combine;
  } else if (runs.size() == 1) {
    ItemRun& run = runs[0];
    run.ws = &*lease;
    prep_item(run, telemetry);
    const obs::ScopedSpan engine(nullptr, telemetry ? &engine_ns : nullptr);
    util::global_pool().parallel_for_2d(
        run.row_blocks, run.col_blocks, run.plan->schedule_grain(),
        [&](std::size_t rb0, std::size_t rb1, std::size_t cb0,
            std::size_t cb1) { walk_blocks(run, rb0, rb1, cb0, cb1, stages); });
  } else {
    // Leases are taken serially so the free list stays contention-free.
    std::vector<WorkspaceLease> leases;
    leases.reserve(runs.size() - 1);
    runs[0].ws = &*lease;
    for (std::size_t j = 1; j < runs.size(); ++j) {
      leases.push_back(ctx.lease_workspace());
      runs[j].ws = &*leases.back();
    }
    util::global_pool().parallel_for(
        runs.size(), [&](std::size_t j0, std::size_t j1) {
          for (std::size_t j = j0; j < j1; ++j) prep_item(runs[j], telemetry);
        });
    // ~kMinChunkFlops of work per chunk, so tiny items coalesce into one
    // task while large items still fan out.
    const std::uint64_t avg_block_flops =
        total_blocks == 0
            ? 1
            : std::max<std::uint64_t>(1, 2 * work / total_blocks);
    const auto grain = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, kMinChunkFlops / avg_block_flops));
    const obs::ScopedSpan engine(nullptr, telemetry ? &engine_ns : nullptr);
    util::global_pool().parallel_for(
        total_blocks, grain, [&](std::size_t g0, std::size_t g1) {
          walk_stream(runs, g0, g1, stages);
        });
  }
#ifndef NDEBUG
  // Each input element must be split exactly once per item -- the plane
  // cache is the point of the packed engine, so re-splitting anywhere
  // downstream is a bug.
  EGEMM_ENSURES(core::debug_split_elements() - split_before ==
                split_elements);
#endif
  if (telemetry) {
    record_calls(runs, t_start, engine_ns, accum, batch_id, lookup);
  }
}

}  // namespace

std::uint64_t debug_workspace_allocations() noexcept {
#ifndef NDEBUG
  return g_workspace_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::size_t small_gemm_inline_threshold() noexcept {
  const std::size_t forced = g_inline_threshold.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  if (const std::optional<std::size_t> file =
          model::TuningCache::global().inline_threshold()) {
    return *file;
  }
  return kDefaultInlineThreshold;
}

void set_small_gemm_inline_threshold(std::size_t work) noexcept {
  g_inline_threshold.store(work, std::memory_order_relaxed);
}

std::size_t PlanKeyHash::operator()(const PlanKey& key) const noexcept {
  auto mix = [](std::size_t h, std::uint64_t v) {
    return h ^ (static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
  };
  const auto u = [](auto v) { return static_cast<std::uint64_t>(v); };
  std::size_t h = 0;
  for (const std::uint64_t v :
       {u(key.m), u(key.n), u(key.k), u(key.backend), u(key.direct),
        u(key.split), u(key.engine), u(key.order), u(key.planes),
        u(key.combo_count), key.combo_seq,
        u(static_cast<std::uint8_t>(key.scheme)), u(key.bm), u(key.bn),
        u(key.bk), u(key.wm), u(key.wn), u(key.wk)}) {
    h = mix(h, v);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

void Workspace::ensure(std::size_t m, std::size_t n, std::size_t k,
                       int planes) {
  const auto count = static_cast<std::size_t>(planes);
  if (ap_.size() < count) {
    count_workspace_allocation();
    ap_.resize(count);
  }
  if (bp_.size() < count) {
    count_workspace_allocation();
    bp_.resize(count);
  }
  count_ = count;
  for (std::size_t p = 0; p < count; ++p) {
    grow_matrix(ap_[p], m, k);
    grow_matrix(bp_[p], k, n);
  }
}

void Workspace::pack() {
  // Deliberately not short-circuited: both packs must refresh.
  const bool a_grew = apack_.assign(a_planes());
  const bool b_grew = bpack_.assign(b_planes());
  if (a_grew || b_grew) count_workspace_allocation();
}

// ---------------------------------------------------------------------------
// GemmPlan
// ---------------------------------------------------------------------------

GemmPlan::GemmPlan(const PlanKey& key, std::size_t grain)
    : key_(key), grain_(grain) {
  tile_ = TileConfig{key.bm, key.bn, key.bk, key.wm, key.wn, key.wk};
  combos_.reserve(key.combo_count);
  for (std::uint8_t i = 0; i < key.combo_count; ++i) {
    const std::uint64_t enc = (key.combo_seq >> (4 * i)) & 0xF;
    combos_.push_back(PlaneCombo{static_cast<int>(enc >> 2),
                                 static_cast<int>(enc & 3)});
  }
  if (!key.direct) {
    const std::size_t planes = key.planes;
    const std::size_t plane_elems = key.m * key.k + key.k * key.n;
    workspace_bytes_ = planes * plane_elems * sizeof(float);
    if (key.engine == ExecEngine::kPacked) {
      const std::size_t row_blocks = (key.m + kTile - 1) / kTile;
      const std::size_t col_blocks = (key.n + kTile - 1) / kTile;
      workspace_bytes_ += planes * (row_blocks + col_blocks) * kTile * key.k *
                          sizeof(float);
    }
  }
}

void GemmPlan::execute(GemmContext& ctx, const Matrix& a, const Matrix& b,
                       const Matrix* c, Matrix& d) const {
  expect_operands(key_, a, b, c, d);
  // Consume the plan_for breadcrumb whether or not recording is on, so a
  // stale hit/miss never attaches to a later call through a held plan.
  const obs::PlanLookup lookup = take_lookup(this);
  ItemRun run = make_run(*this, a, b, c, d);
  if (key_.direct) {
    run_direct(run, lookup);
    return;
  }
  EGEMM_TRACE_SCOPE("egemm_multiply");
  run_pipeline(ctx, {&run, 1}, /*batch_id=*/0, lookup);
}

KernelTiming GemmPlan::timing(const tcsim::GpuSpec& spec) const {
  EGEMM_EXPECTS(key_.m > 0 && key_.n > 0 && key_.k > 0);
  const auto m = static_cast<std::uint64_t>(key_.m);
  const auto n = static_cast<std::uint64_t>(key_.n);
  const auto k = static_cast<std::uint64_t>(key_.k);
  switch (key_.backend) {
    case Backend::kEgemmTC: {
      if (key_.planes == 3) return egemm_3split_timing(m, n, k, spec);
      EgemmOptions opts;
      opts.split = key_.split;
      opts.tile = tile_;
      return egemm_timing(m, n, k, spec, opts);
    }
    case Backend::kDekker: {
      EgemmOptions opts;
      opts.emulation_instructions = 16;
      opts.tile = tile_;
      return egemm_timing(m, n, k, spec, opts);
    }
    default:
      return time_gemm(key_.backend, m, n, k, spec);
  }
}

// ---------------------------------------------------------------------------
// GemmContext
// ---------------------------------------------------------------------------

GemmContext::GemmContext(std::size_t plan_capacity)
    : capacity_(plan_capacity) {
  EGEMM_GAUGE_SET("gemm.plan.cache.capacity",
                  static_cast<std::int64_t>(capacity_));
}

std::shared_ptr<const GemmPlan> GemmContext::plan(Backend backend,
                                                  std::size_t m, std::size_t n,
                                                  std::size_t k,
                                                  const EgemmOptions& opts) {
  // Alg. 1's term order: low-order products first. The other recipes
  // mirror the one-shot baselines exactly (gemm/baselines.cpp).
  static constexpr PlaneCombo kAlg1[] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  static constexpr PlaneCombo kHalfOnly[] = {{1, 1}};
  static constexpr PlaneCombo kMarkidis[] = {{0, 1}, {1, 0}, {1, 1}};
  // All 9 three-way-split products, smallest-magnitude terms first so they
  // are absorbed before the dominant hi x hi partial product.
  static constexpr PlaneCombo k3Split[] = {{0, 0}, {0, 1}, {1, 0},
                                           {0, 2}, {1, 1}, {2, 0},
                                           {1, 2}, {2, 1}, {2, 2}};

  PlanKey key;
  key.m = m;
  key.n = n;
  key.k = k;
  key.backend = backend;
  key.engine = opts.engine;
  const bool direct = backend == Backend::kCublasFp32 ||
                      backend == Backend::kSdkFp32 ||
                      backend == Backend::kDekker;
  // Direct binary32 backends skip the tuning consult -- their tile only
  // feeds the timing model, so a tune.{hit,miss} there would be noise.
  const ResolvedSchedule sched =
      direct ? ResolvedSchedule{analytic_tile(opts.tile), 0}
             : resolve_schedule(opts.tile, m, n, k);
  set_key_tile(key, sched.tile);

  switch (backend) {
    case Backend::kCublasFp32:
    case Backend::kSdkFp32:
    case Backend::kDekker:
      key.direct = true;
      key.engine = ExecEngine::kPacked;  // canonical; engines do not apply
      return plan_for(key, sched.grain);
    case Backend::kEgemmTC:
      if (opts.emulation_instructions == 9) {
        // Three-way split: opts.split selects the rung -- round-split is
        // the FP32-recovery scheme (exact decomposition, the default),
        // truncate-split the Ozaki-style one-signed word slices.
        set_key_recipe(key, opts.split, k3Split, ComboOrder::kFusedPerTile,
                       3);
      } else {
        EGEMM_EXPECTS(opts.emulation_instructions == 4);
        set_key_recipe(key, opts.split, kAlg1, ComboOrder::kFusedPerTile, 2);
      }
      break;
    case Backend::kCublasTcHalf:
      set_key_recipe(key, core::SplitMethod::kRoundSplit, kHalfOnly,
                     ComboOrder::kFusedPerTile, 2);
      break;
    case Backend::kCublasTcEmulation:
      set_key_recipe(key, core::SplitMethod::kRoundSplit, kAlg1,
                     ComboOrder::kSeparatePasses, 2);
      break;
    case Backend::kMarkidis:
      set_key_recipe(key, core::SplitMethod::kTruncateSplit, kMarkidis,
                     ComboOrder::kFusedPerTile, 2);
      break;
  }
  return plan_for(key, sched.grain);
}

std::shared_ptr<const GemmPlan> GemmContext::plan_emulated(
    std::size_t m, std::size_t n, std::size_t k, core::SplitMethod split,
    std::span<const PlaneCombo> combos, ComboOrder order, ExecEngine engine,
    int planes, const TileConfig& tile) {
  EGEMM_EXPECTS(planes == 2 || planes == 3);
  PlanKey key;
  key.m = m;
  key.n = n;
  key.k = k;
  key.backend = Backend::kEgemmTC;
  key.engine = engine;
  const ResolvedSchedule sched = resolve_schedule(tile, m, n, k);
  set_key_tile(key, sched.tile);
  set_key_recipe(key, split, combos, order, planes);
  return plan_for(key, sched.grain);
}

std::shared_ptr<const GemmPlan> GemmContext::plan_for(const PlanKey& key,
                                                      std::size_t grain) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      EGEMM_COUNTER_ADD("gemm.plan.hit", 1);
      note_lookup(lru_.front().plan.get(), obs::PlanLookup::kHit);
      return lru_.front().plan;
    }
  }

  std::shared_ptr<const GemmPlan> created;
  std::uint64_t build_ns = 0;
  {
    const obs::ScopedSpan build("plan", &build_ns);
    created = std::shared_ptr<const GemmPlan>(new GemmPlan(key, grain));
  }
  EGEMM_LATENCY_RECORD("gemm.plan.build.latency", build_ns);

  const std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  EGEMM_COUNTER_ADD("gemm.plan.miss", 1);
  // A racing thread may have built the same plan meanwhile; either copy is
  // interchangeable (plans are immutable), so keep the cached one. The
  // caller still paid a plan build, so the breadcrumb says miss either way.
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    note_lookup(lru_.front().plan.get(), obs::PlanLookup::kMiss);
    return lru_.front().plan;
  }
  lru_.push_front(CacheEntry{key, created});
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    EGEMM_COUNTER_ADD("gemm.plan.cache.evictions", 1);
  }
  EGEMM_GAUGE_SET("gemm.plan.cache.size",
                  static_cast<std::int64_t>(lru_.size()));
  note_lookup(created.get(), obs::PlanLookup::kMiss);
  return created;
}

Matrix GemmContext::run(Backend backend, const Matrix& a, const Matrix& b,
                        const Matrix* c, const EgemmOptions& opts) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::shared_ptr<const GemmPlan> p =
      plan(backend, a.rows(), b.cols(), a.cols(), opts);
  Matrix d;
  p->execute(*this, a, b, c, d);
  return d;
}

std::shared_ptr<const GemmPlan> GemmContext::plan_scheme(
    core::SchemeId scheme, std::size_t m, std::size_t n, std::size_t k,
    ExecEngine engine, const TileConfig& tile) {
  EgemmOptions opts;
  opts.engine = engine;
  opts.tile = tile;
  switch (scheme) {
    case core::SchemeId::kHalf:
      return plan(Backend::kCublasTcHalf, m, n, k, opts);
    case core::SchemeId::kMarkidis:
      return plan(Backend::kMarkidis, m, n, k, opts);
    case core::SchemeId::kTruncate2:
      opts.split = core::SplitMethod::kTruncateSplit;
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kRound2:
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kSlice3:
      opts.split = core::SplitMethod::kTruncateSplit;
      opts.emulation_instructions = 9;
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kRecovery3:
      opts.emulation_instructions = 9;
      return plan(Backend::kEgemmTC, m, n, k, opts);
    case core::SchemeId::kCount:
      break;
  }
  EGEMM_EXPECTS(!"invalid SchemeId");
  return nullptr;
}

Matrix GemmContext::run_scheme(core::SchemeId scheme, const Matrix& a,
                               const Matrix& b, const Matrix* c,
                               ExecEngine engine) {
  EGEMM_EXPECTS(a.cols() == b.rows());
  const std::shared_ptr<const GemmPlan> p =
      plan_scheme(scheme, a.rows(), b.cols(), a.cols(), engine);
  Matrix d;
  p->execute(*this, a, b, c, d);
  return d;
}

GemmContext::ContractPlan GemmContext::plan_contract(
    std::size_t m, std::size_t n, std::size_t k,
    const core::AccuracyContract& contract, ExecEngine engine) {
  ContractPlan result;
  result.resolution = core::resolve_contract(contract, k);
  if (result.resolution.feasible) {
    result.plan = plan_scheme(result.resolution.scheme, m, n, k, engine);
  }
  return result;
}

void GemmContext::execute_grouped(std::span<const GroupedGemm> items) {
  if (items.empty()) return;
  for (const GroupedGemm& item : items) {
    EGEMM_EXPECTS(item.plan != nullptr && item.a != nullptr &&
                  item.b != nullptr && item.d != nullptr);
    expect_operands(item.plan->key(), *item.a, *item.b, item.c, *item.d);
  }
#ifndef NDEBUG
  // Outputs must not alias across items: the flattened stream writes every
  // item's tiles concurrently.
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      EGEMM_EXPECTS(items[i].d != items[j].d);
    }
  }
#endif

  EGEMM_COUNTER_ADD("gemm.batch.calls", 1);
  EGEMM_COUNTER_ADD("gemm.batch.items",
                    static_cast<std::int64_t>(items.size()));

  // Direct binary32 items have no plane pipeline to flatten; run them as
  // plain executes and group only the emulated items.
  std::vector<ItemRun> runs;
  runs.reserve(items.size());
  for (const GroupedGemm& item : items) {
    if (item.plan->direct()) {
      item.plan->execute(*this, *item.a, *item.b, item.c, *item.d);
    } else {
      runs.push_back(make_run(*item.plan, *item.a, *item.b, item.c, *item.d));
    }
  }
  if (runs.empty()) return;

  EGEMM_TRACE_SCOPE("egemm_grouped");
  // Process-unique grouped-execute id; 0 means unbatched, so the first
  // batch is 1.
  const std::uint32_t batch_id =
      g_batch_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  run_pipeline(*this, runs, batch_id, obs::PlanLookup::kUnknown);
}

WorkspaceLease GemmContext::lease_workspace() {
  std::unique_ptr<Workspace> ws;
  {
    const std::lock_guard<std::mutex> lock(ws_mutex_);
    if (!free_workspaces_.empty()) {
      ws = std::move(free_workspaces_.back());
      free_workspaces_.pop_back();
    }
  }
  if (!ws) ws = std::make_unique<Workspace>();
  return WorkspaceLease(this, std::move(ws));
}

void GemmContext::recycle(std::unique_ptr<Workspace> ws) {
  const std::lock_guard<std::mutex> lock(ws_mutex_);
  free_workspaces_.push_back(std::move(ws));
}

std::uint64_t GemmContext::plan_hits() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t GemmContext::plan_misses() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t GemmContext::plan_evictions() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t GemmContext::cached_plans() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t GemmContext::pooled_workspaces() const noexcept {
  const std::lock_guard<std::mutex> lock(ws_mutex_);
  return free_workspaces_.size();
}

WorkspaceLease::WorkspaceLease(WorkspaceLease&& other) noexcept
    : ctx_(std::exchange(other.ctx_, nullptr)), ws_(std::move(other.ws_)) {}

WorkspaceLease::~WorkspaceLease() {
  if (ctx_ != nullptr && ws_ != nullptr) ctx_->recycle(std::move(ws_));
}

GemmContext& default_context() {
  static GemmContext ctx;
  return ctx;
}

}  // namespace egemm::gemm
