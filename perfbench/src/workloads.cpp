#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "apps/dataset.hpp"
#include "apps/kmeans.hpp"
#include "apps/knn.hpp"
#include "apps/pca.hpp"
#include "core/scheme.hpp"
#include "gemm/gemm_api.hpp"
#include "util/rng.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

namespace gm = egemm::gemm;
namespace apps = egemm::apps;
namespace core = egemm::core;

void Hasher::add(const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, std::min<std::size_t>(8, bytes - i));
    h_ = (h_ ^ word) * 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  h_ = (h_ ^ bytes) * 0x100000001b3ULL;
}

std::uint64_t Workload::useful_flops() const {
  std::uint64_t total = 0;
  for (const Shape& s : requested_gemms()) total += gemm_flops(s);
  return total;
}

std::vector<Shape> Workload::distinct_shapes() const {
  std::vector<Shape> out;
  for (const Shape& s : requested_gemms()) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

namespace {

/// Rows of the output checked against the oracle: all of them for small
/// shapes; for large ones the first, the last and 14 seeded rows (the
/// double-double oracle costs k*n per row).
std::vector<std::size_t> oracle_rows(std::size_t m, std::uint64_t seed) {
  std::vector<std::size_t> rows;
  if (m <= 128) {
    for (std::size_t r = 0; r < m; ++r) rows.push_back(r);
    return rows;
  }
  egemm::util::Xoshiro256 rng(seed);
  rows = {0, m - 1};
  while (rows.size() < 16) rows.push_back(static_cast<std::size_t>(rng.below(m)));
  return rows;
}

/// Finite stand-in for "not comparable" (NaN output), so detail JSON stays valid.
constexpr double kFailedRatio = std::numeric_limits<double>::max();

/// Largest |D - oracle| / (round-2term a-priori element bound) over the
/// checked rows of D = A x B; <= 1 means every element is within bound.
double oracle_bound_ratio(const gm::Matrix& a, const gm::Matrix& b,
                          const gm::Matrix& d, std::uint64_t seed) {
  const std::size_t k = a.cols(), n = b.cols();
  const std::vector<std::size_t> rows = oracle_rows(a.rows(), seed);
  gm::Matrix a_rows(rows.size(), k);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(a.row(rows[r]), a.row(rows[r]) + k, a_rows.row(r));
  }
  const egemm::verify::OracleMatrix ref = egemm::verify::oracle_gemm(a_rows, b);
  std::vector<double> b_col(n, 0.0);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      b_col[j] = std::max(b_col[j], std::fabs(static_cast<double>(b.at(t, j))));
    }
  }
  double worst = 0.0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double a_row = 0.0;
    for (std::size_t t = 0; t < k; ++t) {
      a_row = std::max(a_row, std::fabs(static_cast<double>(a_rows.at(r, t))));
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double bound =
          core::scheme_bound(core::SchemeId::kRound2, {k, a_row, b_col[j], 0.0})
              .worst_abs;
      const double err =
          std::fabs(static_cast<double>(d.at(rows[r], j)) - ref.value(r, j));
      if (std::isnan(err)) return kFailedRatio;
      worst = std::max(worst, err / bound);
    }
  }
  return worst;
}

std::string shape_label(const Shape& s) {
  std::ostringstream os;
  os << s.m << 'x' << s.n << 'x' << s.k;
  return os.str();
}

/// Oracle check of the first output of every distinct shape; appends
/// "<shape>": ratio entries to `json`.
bool check_first_of_each_shape(std::span<const Shape> shapes,
                               std::span<const gm::Matrix> a,
                               std::span<const gm::Matrix> b,
                               std::span<const gm::Matrix> d,
                               std::uint64_t seed, std::ostringstream& json) {
  bool ok = true;
  std::vector<Shape> seen;
  json << "\"oracle_bound_ratio\":{";
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (std::find(seen.begin(), seen.end(), shapes[i]) != seen.end()) continue;
    const double ratio = oracle_bound_ratio(a[i], b[i], d[i], seed + i);
    ok = ok && ratio <= 1.0;
    json << (seen.empty() ? "" : ",") << '"' << shape_label(shapes[i])
         << "\":" << ratio;
    seen.push_back(shapes[i]);
  }
  json << '}';
  return ok;
}

/// The oracle check alone, as a CheckResult.
CheckResult oracle_check(std::span<const Shape> shapes,
                         std::span<const gm::Matrix> a,
                         std::span<const gm::Matrix> b,
                         std::span<const gm::Matrix> d, std::uint64_t seed) {
  std::ostringstream json;
  json << '{';
  const bool ok = check_first_of_each_shape(shapes, a, b, d, seed, json);
  json << '}';
  return {ok, json.str()};
}

/// Independent input matrices in [-1, 1), one stream per matrix.
void random_operands(std::span<const Shape> shapes, std::uint64_t seed,
                     std::vector<gm::Matrix>& a, std::vector<gm::Matrix>& b) {
  std::uint64_t state = seed;
  a.clear();
  b.clear();
  for (const Shape& s : shapes) {
    a.push_back(gm::random_matrix(s.m, s.k, -1.0f, 1.0f,
                                  egemm::util::splitmix64(state)));
    b.push_back(gm::random_matrix(s.k, s.n, -1.0f, 1.0f,
                                  egemm::util::splitmix64(state)));
  }
}

// -- gemm_large ---------------------------------------------------------------

/// One square 1024^3 GEMM plus one Fig. 9(b)-style skewed (4N, N, N) GEMM,
/// each a gemm_ex call on the paper's round-2term EGEMM-TC recipe.
class GemmLarge final : public Workload {
 public:
  std::string_view name() const override { return "gemm_large"; }
  std::vector<Shape> requested_gemms() const override {
    return {kShapes.begin(), kShapes.end()};
  }
  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    random_operands(kShapes, seed, a_, b_);
    d_.assign(kShapes.size(), gm::Matrix{});
  }
  void run_op(gm::GemmContext& ctx, Tracer* tracer) override {
    for (std::size_t i = 0; i < kShapes.size(); ++i) {
      const Span span(tracer, kSpans[i]);
      d_[i] = gm::gemm_ex(ctx, gm::Backend::kEgemmTC, a_[i], b_[i], nullptr, {});
    }
  }
  std::uint64_t output_hash() const override {
    Hasher h;
    for (const gm::Matrix& d : d_) h.add(d);
    return h.value();
  }
  void keep_reference() override { ref_ = d_; }
  CheckResult check_reference(gm::GemmContext&) override {
    return oracle_check(kShapes, a_, b_, ref_, seed_);
  }

 private:
  static constexpr std::array<Shape, 2> kShapes{{{1024, 1024, 1024},
                                                 {2048, 512, 512}}};
  static constexpr std::array<const char*, 2> kSpans{
      "gemm.gemm_ex/1024x1024x1024", "gemm.gemm_ex/2048x512x512"};
  std::uint64_t seed_ = 0;
  std::vector<gm::Matrix> a_, b_, d_, ref_;
};

// -- gemm_small_calls / gemm_small_batch --------------------------------------

struct RotationItem {
  Shape shape;
  const char* call_span;  ///< span name of one gemm_ex call of this shape
  bool small_class;       ///< 32^3 batch (else the 128^3-class batch)
};

/// Items in one pass: the fixed rotation of 96 small mixed-shape GEMMs,
/// 16 repeats of [32^3, 64x96x48, 32^3, 128^3, 32^3, 64x96x48].
constexpr std::size_t kRotationItems = 96;
/// Passes over the rotation per op, each on its own inputs. One pass lasts
/// only 2-5 ms on a 4-core host, where a single hypervisor preemption
/// doubles an op; four passes keep the op-time tail measuring the library.
constexpr std::size_t kRotationPasses = 4;

std::vector<RotationItem> small_rotation() {
  const RotationItem s{{32, 32, 32}, "gemm.gemm_ex/32x32x32", true};
  const RotationItem r{{64, 96, 48}, "gemm.gemm_ex/64x96x48", false};
  const RotationItem l{{128, 128, 128}, "gemm.gemm_ex/128x128x128", false};
  std::vector<RotationItem> items;
  while (items.size() < kRotationPasses * kRotationItems) {
    for (const RotationItem& it : {s, r, s, l, s, r}) items.push_back(it);
  }
  return items;
}

class SmallRotation : public Workload {
 public:
  SmallRotation() : items_(small_rotation()) {
    for (const RotationItem& it : items_) shapes_.push_back(it.shape);
  }
  std::vector<Shape> requested_gemms() const override { return shapes_; }
  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    random_operands(shapes_, seed, a_, b_);
    d_.assign(shapes_.size(), gm::Matrix{});
  }
  std::uint64_t output_hash() const override {
    Hasher h;
    for (const gm::Matrix& d : d_) h.add(d);
    return h.value();
  }
  void keep_reference() override { ref_ = d_; }

 protected:
  void run_loop(gm::GemmContext& ctx, Tracer* tracer,
                std::vector<gm::Matrix>& out) const {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Span span(tracer, items_[i].call_span);
      out[i] = gm::gemm_ex(ctx, gm::Backend::kEgemmTC, a_[i], b_[i], nullptr, {});
    }
  }

  std::vector<RotationItem> items_;
  std::vector<Shape> shapes_;
  std::uint64_t seed_ = 0;
  std::vector<gm::Matrix> a_, b_, d_, ref_;
};

/// The rotation passes as individual gemm_ex calls on one context.
class SmallCalls final : public SmallRotation {
 public:
  std::string_view name() const override { return "gemm_small_calls"; }
  void run_op(gm::GemmContext& ctx, Tracer* tracer) override {
    run_loop(ctx, tracer, d_);
  }
  CheckResult check_reference(gm::GemmContext&) override {
    return oracle_check(shapes_, a_, b_, ref_, seed_);
  }
};

/// The same items, each pass as two gemm_grouped calls: every 32^3 item of
/// the pass in one batch, its 64x96x48 and 128^3 items in the other.
class SmallBatch final : public SmallRotation {
 public:
  std::string_view name() const override { return "gemm_small_batch"; }
  void prepare(std::uint64_t seed) override {
    SmallRotation::prepare(seed);
    small_.assign(kRotationPasses, {});
    large_.assign(kRotationPasses, {});
    for (std::size_t i = 0; i < items_.size(); ++i) {
      gm::GroupedGemmItem item;
      item.a = &a_[i];
      item.b = &b_[i];
      item.d = &d_[i];
      const std::size_t pass = i / kRotationItems;
      (items_[i].small_class ? small_ : large_)[pass].push_back(item);
    }
  }
  void run_op(gm::GemmContext& ctx, Tracer* tracer) override {
    for (std::size_t pass = 0; pass < kRotationPasses; ++pass) {
      {
        const Span span(tracer, "gemm.gemm_grouped/32x32x32");
        gm::gemm_grouped(ctx, gm::Backend::kEgemmTC, small_[pass]);
      }
      const Span span(tracer, "gemm.gemm_grouped/128-class");
      gm::gemm_grouped(ctx, gm::Backend::kEgemmTC, large_[pass]);
    }
  }
  CheckResult check_reference(gm::GemmContext& ctx) override {
    std::ostringstream json;
    json << '{';
    bool ok = check_first_of_each_shape(shapes_, a_, b_, ref_, seed_, json);
    std::vector<gm::Matrix> loop(items_.size());
    run_loop(ctx, nullptr, loop);
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const bool same =
          loop[i].rows() == ref_[i].rows() && loop[i].cols() == ref_[i].cols() &&
          std::memcmp(loop[i].data().data(), ref_[i].data().data(),
                      ref_[i].size() * sizeof(float)) == 0;
      mismatched += same ? 0 : 1;
    }
    ok = ok && mismatched == 0;
    json << ",\"items_differing_from_gemm_ex_loop\":" << mismatched << '}';
    return {ok, json.str()};
  }

 private:
  /// Per pass: the 48 32^3 items, and the 48 64x96x48 and 128^3 items.
  std::vector<std::vector<gm::GroupedGemmItem>> small_, large_;
};

// -- apps_solve ---------------------------------------------------------------

/// `m` split into consecutive row blocks of `rows` rows.
std::vector<gm::Matrix> row_chunks(const gm::Matrix& m, std::size_t rows) {
  std::vector<gm::Matrix> out;
  for (std::size_t start = 0; start < m.rows(); start += rows) {
    const std::size_t r = std::min(rows, m.rows() - start);
    gm::Matrix chunk(r, m.cols());
    std::copy(m.row(start), m.row(start) + r * m.cols(), chunk.data().begin());
    out.push_back(std::move(chunk));
  }
  return out;
}

/// One kMeans solve (fixed iteration count, grouped distance GEMM), one kNN
/// search under an accuracy contract and one PCA (grouped covariance GEMM).
class AppsSolve final : public Workload {
 public:
  static constexpr std::size_t kKmPoints = 4096, kKmDim = 64, kKmGroupRows = 1024;
  static constexpr int kKmClusters = 16, kKmIterations = 10;
  static constexpr std::size_t kKnnQueries = 512, kKnnRefs = 4096, kKnnDim = 64;
  static constexpr int kKnnK = 8;
  static constexpr double kKnnTarget = 1e-3;
  static constexpr std::size_t kPcaPoints = 8192, kPcaDim = 128, kPcaGroupRows = 32;
  static constexpr int kPcaComponents = 4, kPcaIterations = 30;

  std::string_view name() const override { return "apps_solve"; }
  std::vector<Shape> requested_gemms() const override {
    std::vector<Shape> out;
    for (int it = 0; it < kKmIterations; ++it) {
      for (std::size_t c = 0; c < kKmPoints / kKmGroupRows; ++c) {
        out.push_back({kKmGroupRows, kKmClusters, kKmDim});
      }
    }
    out.push_back({kKnnQueries, kKnnRefs, kKnnDim});
    for (std::size_t c = 0; c < kPcaDim / kPcaGroupRows; ++c) {
      out.push_back({kPcaGroupRows, kPcaDim, kPcaPoints});
    }
    return out;
  }
  void prepare(std::uint64_t seed) override {
    std::uint64_t state = seed;
    const auto next = [&] { return egemm::util::splitmix64(state); };
    seed_ = next();
    km_points_ = apps::gaussian_mixture(kKmPoints, kKmDim, kKmClusters, 0.1, next())
                     .points;
    knn_queries_ = apps::uniform_cloud(kKnnQueries, kKnnDim, -1.0f, 1.0f, next()).points;
    knn_refs_ = apps::uniform_cloud(kKnnRefs, kKnnDim, -1.0f, 1.0f, next()).points;
    // Column d scaled by 1/(1+d): well-separated eigenvalues, so power
    // iteration converges the same way on every seed.
    pca_points_ = apps::uniform_cloud(kPcaPoints, kPcaDim, -1.0f, 1.0f, next()).points;
    for (std::size_t i = 0; i < kPcaPoints; ++i) {
      for (std::size_t d = 0; d < kPcaDim; ++d) {
        pca_points_.at(i, d) /= static_cast<float>(1 + d);
      }
    }
    // Replay operands: the app GEMMs' shapes on data of the same scale.
    replay_ct_ = gm::random_matrix(kKmDim, kKmClusters, -1.0f, 1.0f, next());
    replay_rt_ = gm::transpose(knn_refs_);
    replay_km_chunks_ = row_chunks(km_points_, kKmGroupRows);
    replay_pca_chunks_ = row_chunks(gm::transpose(pca_points_), kPcaGroupRows);
  }
  void run_op(gm::GemmContext& ctx, Tracer* tracer) override {
    {
      apps::KMeansOptions o;
      o.clusters = kKmClusters;
      o.max_iterations = kKmIterations;
      o.tolerance = -1.0;  // never "converges": a fixed iteration count
      o.seed = seed_;
      o.context = &ctx;
      o.group_rows = kKmGroupRows;
      const Span span(tracer, "apps.kmeans");
      km_ = apps::kmeans(km_points_, o);
    }
    {
      apps::KnnOptions o;
      o.k = kKnnK;
      o.precision_target = kKnnTarget;
      o.context = &ctx;
      const Span span(tracer, "apps.knn_search");
      knn_ = apps::knn_search(knn_queries_, knn_refs_, o);
    }
    apps::PcaOptions o;
    o.components = kPcaComponents;
    o.power_iterations = kPcaIterations;
    o.seed = seed_;
    o.context = &ctx;
    o.group_rows = kPcaGroupRows;
    const Span span(tracer, "apps.pca_power");
    pca_ = apps::pca_power(pca_points_, o);
  }
  std::uint64_t output_hash() const override {
    Hasher h;
    h.add(km_.centroids);
    h.add(km_.assignment.data(), km_.assignment.size() * sizeof(int));
    h.add(&km_.iterations, sizeof(km_.iterations));
    h.add(knn_.indices.data().data(), knn_.indices.size() * sizeof(std::int32_t));
    h.add(knn_.distances);
    h.add(pca_.components);
    h.add(pca_.explained_variance.data(),
          pca_.explained_variance.size() * sizeof(double));
    return h.value();
  }
  void keep_reference() override {
    km_ref_ = km_;
    knn_ref_ = knn_;
    pca_ref_ = pca_;
  }
  CheckResult check_reference(gm::GemmContext&) override {
    const double inertia_oracle =
        apps::kmeans_inertia(km_points_, km_ref_.centroids, km_ref_.assignment);
    // Same band as the repository's kMeans oracle test: the assignment
    // step's distances run in binary32.
    const bool km_ok =
        std::fabs(km_ref_.inertia - inertia_oracle) <= 0.05 * inertia_oracle + 1e-3 &&
        km_ref_.iterations == kKmIterations;
    const double agreement = apps::knn_agreement(
        knn_ref_, apps::knn_bruteforce(knn_queries_, knn_refs_, kKnnK));
    const bool knn_ok = agreement >= 0.97;
    double worst_dot = 0.0;
    const gm::Matrix& pc = pca_ref_.components;
    for (std::size_t a = 0; a < pc.rows(); ++a) {
      for (std::size_t b = 0; b < pc.rows(); ++b) {
        double dot = 0.0;
        for (std::size_t d = 0; d < pc.cols(); ++d) {
          dot += static_cast<double>(pc.at(a, d)) * static_cast<double>(pc.at(b, d));
        }
        const double off = std::fabs(dot - (a == b ? 1.0 : 0.0));
        worst_dot = std::isnan(off) ? kFailedRatio : std::max(worst_dot, off);
      }
    }
    const bool pca_ok = pc.rows() == static_cast<std::size_t>(kPcaComponents) &&
                        worst_dot <= 0.02;
    std::ostringstream json;
    json << "{\"kmeans_inertia\":" << km_ref_.inertia
         << ",\"kmeans_inertia_oracle\":" << inertia_oracle
         << ",\"kmeans_iterations\":" << km_ref_.iterations
         << ",\"knn_agreement\":" << agreement << ",\"knn_scheme\":\""
         << (knn_ref_.scheme != nullptr ? knn_ref_.scheme : "none")
         << "\",\"pca_orthonormality_error\":" << worst_dot << '}';
    return {km_ok && knn_ok && pca_ok, json.str()};
  }

  int kmeans_iterations() const noexcept { return km_.iterations; }

  /// Executes the op's GEMMs alone: the same shapes, schemes and grouping
  /// on inputs of the same sizes.
  void replay(gm::GemmContext& ctx, Tracer* tracer) {
    const auto grouped = [&](const std::vector<gm::Matrix>& chunks,
                             const gm::Matrix& b, std::vector<gm::Matrix>& out) {
      std::vector<gm::GroupedGemm> work;
      out.resize(chunks.size());
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        work.push_back({ctx.plan(gm::Backend::kEgemmTC, chunks[c].rows(), b.cols(),
                                 b.rows()),
                        &chunks[c], &b, nullptr, &out[c]});
      }
      return work;
    };
    std::vector<gm::Matrix> km_out, pca_out;
    const std::vector<gm::GroupedGemm> km_work =
        grouped(replay_km_chunks_, replay_ct_, km_out);
    const std::vector<gm::GroupedGemm> pca_work =
        grouped(replay_pca_chunks_, pca_points_, pca_out);
    const auto knn_scheme = knn_.scheme != nullptr
                                ? core::parse_scheme_name(knn_.scheme)
                                : std::nullopt;
    const auto knn_plan =
        ctx.plan_scheme(knn_scheme.value_or(core::SchemeId::kRound2), kKnnQueries,
                        kKnnRefs, kKnnDim);
    gm::Matrix knn_out;
    const Span span(tracer, "apps.gemm_replay");
    for (int it = 0; it < kKmIterations; ++it) ctx.execute_grouped(km_work);
    knn_plan->execute(ctx, knn_queries_, replay_rt_, nullptr, knn_out);
    ctx.execute_grouped(pca_work);
  }

 private:
  std::uint64_t seed_ = 0;
  gm::Matrix km_points_, knn_queries_, knn_refs_, pca_points_;
  gm::Matrix replay_ct_, replay_rt_;
  std::vector<gm::Matrix> replay_km_chunks_, replay_pca_chunks_;
  apps::KMeansResult km_, km_ref_;
  apps::KnnResult knn_, knn_ref_;
  apps::PcaResult pca_, pca_ref_;
};

constexpr std::array<std::string_view, 4> kWorkloadNames{
    "gemm_large", "gemm_small_calls", "gemm_small_batch", "apps_solve"};

}  // namespace

std::span<const std::string_view> workload_names() noexcept {
  return kWorkloadNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "gemm_large") return std::make_unique<GemmLarge>();
  if (name == "gemm_small_calls") return std::make_unique<SmallCalls>();
  if (name == "gemm_small_batch") return std::make_unique<SmallBatch>();
  if (name == "apps_solve") return std::make_unique<AppsSolve>();
  return nullptr;
}

void replay_app_gemms(Workload& apps, gm::GemmContext& ctx, Tracer* tracer) {
  dynamic_cast<AppsSolve&>(apps).replay(ctx, tracer);
}

int kmeans_iterations(const Workload& apps) {
  return dynamic_cast<const AppsSolve&>(apps).kmeans_iterations();
}

}  // namespace perfbench
