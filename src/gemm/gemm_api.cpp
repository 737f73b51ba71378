#include "gemm/gemm_api.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "gemm/plan.hpp"
#include "util/assert.hpp"

namespace egemm::gemm {

namespace {

/// The (alpha, beta) scaling epilogue shared by gemm_ex and the grouped
/// entry points, in place in D: one binary32 multiply plus one fma per
/// element, exactly as cuBLAS does it.
void apply_epilogue(Matrix& d, const Matrix* c, const GemmExParams& params) {
  for (std::size_t i = 0; i < d.size(); ++i) {
    float value = params.alpha * d.data()[i];
    if (c != nullptr && params.beta != 0.0f) {
      value = std::fmaf(params.beta, c->data()[i], value);
    }
    d.data()[i] = value;
  }
}

/// The gemm_ex fast path: alpha = 1 and (beta = 0, or beta = 1 on a
/// backend that takes a C input -- every backend but the SDK sample) rides
/// the kernel accumulator, so no epilogue runs. The kernel then takes C
/// exactly when beta = 1.
bool rides_accumulator(const GemmExParams& params, bool takes_c) {
  return params.alpha == 1.0f &&
         (params.beta == 0.0f || (params.beta == 1.0f && takes_c));
}

[[noreturn]] void throw_contract_infeasible(
    const core::AccuracyContract& contract,
    const core::ContractResolution& resolution) {
  char message[192];
  std::snprintf(message, sizeof(message),
                "no emulation scheme meets the accuracy contract: target "
                "%.6g, tightest rung (%s) only proves %.6g",
                contract.max_abs_error,
                core::scheme_name(resolution.tightest),
                resolution.tightest_worst_abs);
  throw std::invalid_argument(message);
}

/// Shared core of the grouped/batched entry points: materializes the
/// transposed operands, plans every item through `make_plan(item_index,
/// m, n, k)`, runs the whole set as one GemmContext::execute_grouped
/// stream, then applies the per-item alpha/beta epilogues. The fast-path
/// rules mirror gemm_ex exactly, so results stay bit-identical to the
/// per-item loop.
void run_grouped_items(
    GemmContext& ctx, std::span<const GroupedGemmItem> items,
    const std::function<std::shared_ptr<const GemmPlan>(
        std::size_t, std::size_t, std::size_t, std::size_t)>& make_plan) {
  std::size_t transposes = 0;
  for (const GroupedGemmItem& item : items) {
    EGEMM_EXPECTS(item.a != nullptr && item.b != nullptr &&
                  item.d != nullptr);
    EGEMM_EXPECTS(item.params.beta == 0.0f || item.c != nullptr);
    if (item.params.trans_a == Transpose::kTranspose) ++transposes;
    if (item.params.trans_b == Transpose::kTranspose) ++transposes;
  }
  // Reserved up front: the GroupedGemm work list keeps raw pointers into
  // this storage, so it must never reallocate.
  std::vector<Matrix> storage;
  storage.reserve(transposes);
  std::vector<GroupedGemm> work;
  work.reserve(items.size());
  std::vector<std::size_t> epilogue;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const GroupedGemmItem& item = items[i];
    const Matrix* op_a = item.a;
    if (item.params.trans_a == Transpose::kTranspose) {
      storage.push_back(transpose(*item.a));
      op_a = &storage.back();
    }
    const Matrix* op_b = item.b;
    if (item.params.trans_b == Transpose::kTranspose) {
      storage.push_back(transpose(*item.b));
      op_b = &storage.back();
    }
    EGEMM_EXPECTS(op_a->cols() == op_b->rows());
    EGEMM_EXPECTS(item.c == nullptr ||
                  (item.c->rows() == op_a->rows() &&
                   item.c->cols() == op_b->cols()));
    std::shared_ptr<const GemmPlan> plan =
        make_plan(i, op_a->rows(), op_b->cols(), op_a->cols());
    const bool fast =
        rides_accumulator(item.params, plan->backend() != Backend::kSdkFp32);
    const Matrix* kernel_c =
        fast && item.params.beta == 1.0f ? item.c : nullptr;
    if (!fast) epilogue.push_back(i);
    work.push_back(GroupedGemm{std::move(plan), op_a, op_b, kernel_c,
                               item.d});
  }
  ctx.execute_grouped(work);
  for (const std::size_t i : epilogue) {
    apply_epilogue(*items[i].d, items[i].c, items[i].params);
  }
}

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kEgemmTC:
      return "EGEMM-TC";
    case Backend::kCublasFp32:
      return "cuBLAS-CUDA-FP32";
    case Backend::kCublasTcHalf:
      return "cuBLAS-TC-Half";
    case Backend::kCublasTcEmulation:
      return "cuBLAS-TC-Emulation";
    case Backend::kSdkFp32:
      return "SDK-CUDA-FP32";
    case Backend::kMarkidis:
      return "Markidis";
    case Backend::kDekker:
      return "Dekker";
  }
  return "?";
}

std::vector<Backend> all_backends() {
  return {Backend::kEgemmTC,       Backend::kCublasFp32,
          Backend::kCublasTcHalf,  Backend::kCublasTcEmulation,
          Backend::kSdkFp32,       Backend::kMarkidis,
          Backend::kDekker};
}

Matrix run_gemm(Backend backend, const Matrix& a, const Matrix& b,
                const Matrix* c) {
  return run_gemm(default_context(), backend, a, b, c);
}

Matrix run_gemm(GemmContext& ctx, Backend backend, const Matrix& a,
                const Matrix& b, const Matrix* c) {
  if (backend == Backend::kSdkFp32) EGEMM_EXPECTS(c == nullptr);
  return ctx.run(backend, a, b, c);
}

Matrix gemm_ex(Backend backend, const Matrix& a, const Matrix& b,
               const Matrix* c, const GemmExParams& params) {
  return gemm_ex(default_context(), backend, a, b, c, params);
}

Matrix gemm_ex(GemmContext& ctx, Backend backend, const Matrix& a,
               const Matrix& b, const Matrix* c, const GemmExParams& params) {
  EGEMM_EXPECTS(params.beta == 0.0f || c != nullptr);
  const Matrix op_a =
      params.trans_a == Transpose::kTranspose ? transpose(a) : a;
  const Matrix op_b =
      params.trans_b == Transpose::kTranspose ? transpose(b) : b;
  EGEMM_EXPECTS(op_a.cols() == op_b.rows());
  EGEMM_EXPECTS(c == nullptr ||
                (c->rows() == op_a.rows() && c->cols() == op_b.cols()));

  if (rides_accumulator(params, backend != Backend::kSdkFp32)) {
    return run_gemm(ctx, backend, op_a, op_b,
                    params.beta == 1.0f ? c : nullptr);
  }

  // The (alpha, beta) scaling is a binary32 epilogue over the kernel
  // result, in place in D -- the epilogue needs no extra scratch.
  Matrix d = run_gemm(ctx, backend, op_a, op_b, nullptr);
  apply_epilogue(d, c, params);
  return d;
}

core::ContractResolution gemm_ex_contract_resolution(
    const Matrix& a, const Matrix& b, const Matrix* c,
    const GemmExParams& params, const core::AccuracyContract& contract) {
  EGEMM_EXPECTS(params.alpha != 0.0f);
  EGEMM_EXPECTS(params.beta == 0.0f || c != nullptr);
  // max |op(X)| == max |X|: transposition never changes the scale context,
  // so the scales come straight off the stored matrices.
  const std::size_t k =
      params.trans_a == Transpose::kTranspose ? a.rows() : a.cols();
  core::AccuracyContract resolved = contract;
  if (resolved.a_scale <= 0.0) resolved.a_scale = max_abs(a);
  if (resolved.b_scale <= 0.0) resolved.b_scale = max_abs(b);
  const bool use_c = c != nullptr && params.beta != 0.0f;
  if (resolved.c_abs <= 0.0) resolved.c_abs = use_c ? max_abs(*c) : 0.0;
  if (!use_c) resolved.c_abs = 0.0;

  // Scheme plans always take C.
  const bool fast = rides_accumulator(params, /*takes_c=*/true);
  double target = contract.max_abs_error;
  double kernel_c_abs = 0.0;
  if (fast) {
    // beta == 1 rides C on the kernel accumulator; beta == 0 has no C.
    if (params.beta == 1.0f) kernel_c_abs = resolved.c_abs;
  } else {
    // Epilogue path: the kernel runs without C, then D = alpha * D0 (one
    // binary32 multiply) fma'd with beta * C (one more rounding). Both
    // roundings are at most u32 of the output scale; budget 4 u32 of it
    // out of the target and require the kernel to meet the rest (scaled
    // back by |alpha|, since its error is multiplied through).
    const double alpha = std::fabs(static_cast<double>(params.alpha));
    const double beta = std::fabs(static_cast<double>(params.beta));
    const double out_scale =
        alpha * static_cast<double>(k) * resolved.a_scale *
            resolved.b_scale +
        beta * resolved.c_abs;
    target = (target - 4.0 * 0x1.0p-24 * out_scale) / alpha;
  }
  core::AccuracyContract kernel_contract = resolved;
  kernel_contract.max_abs_error = target;
  kernel_contract.c_abs = kernel_c_abs;
  return core::resolve_contract(kernel_contract, k);
}

Matrix gemm_ex(GemmContext& ctx, const Matrix& a, const Matrix& b,
               const Matrix* c, const GemmExParams& params,
               const core::AccuracyContract& contract) {
  const core::ContractResolution resolution =
      gemm_ex_contract_resolution(a, b, c, params, contract);
  if (!resolution.feasible) {
    throw_contract_infeasible(contract, resolution);
  }

  const Matrix op_a =
      params.trans_a == Transpose::kTranspose ? transpose(a) : a;
  const Matrix op_b =
      params.trans_b == Transpose::kTranspose ? transpose(b) : b;
  EGEMM_EXPECTS(op_a.cols() == op_b.rows());
  EGEMM_EXPECTS(c == nullptr ||
                (c->rows() == op_a.rows() && c->cols() == op_b.cols()));

  const bool fast = rides_accumulator(params, /*takes_c=*/true);
  const std::shared_ptr<const GemmPlan> plan = ctx.plan_scheme(
      resolution.scheme, op_a.rows(), op_b.cols(), op_a.cols());
  Matrix d;
  plan->execute(ctx, op_a, op_b,
                fast && params.beta == 1.0f ? c : nullptr, d);
  if (!fast) apply_epilogue(d, c, params);
  return d;
}

Matrix gemm_ex(const Matrix& a, const Matrix& b, const Matrix* c,
               const GemmExParams& params,
               const core::AccuracyContract& contract) {
  return gemm_ex(default_context(), a, b, c, params, contract);
}

void gemm_grouped(GemmContext& ctx, Backend backend,
                  std::span<const GroupedGemmItem> items) {
  run_grouped_items(ctx, items,
                    [&ctx, backend](std::size_t, std::size_t m, std::size_t n,
                                    std::size_t k) {
                      return ctx.plan(backend, m, n, k);
                    });
}

void gemm_grouped(Backend backend, std::span<const GroupedGemmItem> items) {
  gemm_grouped(default_context(), backend, items);
}

std::vector<Matrix> gemm_batched(GemmContext& ctx, Backend backend,
                                 std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params) {
  EGEMM_EXPECTS(a.size() == b.size());
  EGEMM_EXPECTS(c.empty() || c.size() == a.size());
  EGEMM_EXPECTS(params.beta == 0.0f || !c.empty());
  std::vector<Matrix> d(a.size());
  if (a.empty()) return d;
  for (std::size_t i = 1; i < a.size(); ++i) {
    EGEMM_EXPECTS(a[i].rows() == a[0].rows() && a[i].cols() == a[0].cols());
    EGEMM_EXPECTS(b[i].rows() == b[0].rows() && b[i].cols() == b[0].cols());
  }
  std::vector<GroupedGemmItem> items(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    items[i].a = &a[i];
    items[i].b = &b[i];
    items[i].c = c.empty() ? nullptr : &c[i];
    items[i].d = &d[i];
    items[i].params = params;
  }
  gemm_grouped(ctx, backend, items);
  return d;
}

std::vector<Matrix> gemm_batched(Backend backend, std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params) {
  return gemm_batched(default_context(), backend, a, b, c, params);
}

namespace {

/// Copies item `index` out of a (batch * rows) x cols row-major stack.
Matrix strided_slice(const Matrix& stack, std::size_t index,
                     std::size_t rows) {
  Matrix out(rows, stack.cols());
  const float* from = stack.row(index * rows);
  std::copy(from, from + rows * stack.cols(), out.data().begin());
  return out;
}

}  // namespace

Matrix gemm_batched_strided(GemmContext& ctx, Backend backend,
                            std::size_t batch, const Matrix& a,
                            const Matrix& b, const Matrix* c,
                            const GemmExParams& params) {
  if (batch == 0) return Matrix();
  EGEMM_EXPECTS(a.rows() % batch == 0);
  EGEMM_EXPECTS(b.rows() % batch == 0);
  EGEMM_EXPECTS(c == nullptr || c->rows() % batch == 0);
  const std::size_t rows_a = a.rows() / batch;
  const std::size_t rows_b = b.rows() / batch;
  std::vector<Matrix> a_items, b_items, c_items;
  a_items.reserve(batch);
  b_items.reserve(batch);
  if (c != nullptr) c_items.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    a_items.push_back(strided_slice(a, i, rows_a));
    b_items.push_back(strided_slice(b, i, rows_b));
    if (c != nullptr) {
      c_items.push_back(strided_slice(*c, i, c->rows() / batch));
    }
  }
  const std::vector<Matrix> d_items =
      gemm_batched(ctx, backend, a_items, b_items, c_items, params);
  const std::size_t m = d_items[0].rows();
  const std::size_t n = d_items[0].cols();
  Matrix d(batch * m, n);
  for (std::size_t i = 0; i < batch; ++i) {
    std::copy(d_items[i].data().begin(), d_items[i].data().end(),
              d.row(i * m));
  }
  return d;
}

Matrix gemm_batched_strided(Backend backend, std::size_t batch,
                            const Matrix& a, const Matrix& b, const Matrix* c,
                            const GemmExParams& params) {
  return gemm_batched_strided(default_context(), backend, batch, a, b, c,
                              params);
}

std::vector<Matrix> gemm_batched(GemmContext& ctx, std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params,
                                 const core::AccuracyContract& contract) {
  EGEMM_EXPECTS(a.size() == b.size());
  EGEMM_EXPECTS(c.empty() || c.size() == a.size());
  EGEMM_EXPECTS(params.beta == 0.0f || !c.empty());
  std::vector<Matrix> d(a.size());
  if (a.empty()) return d;
  for (std::size_t i = 1; i < a.size(); ++i) {
    EGEMM_EXPECTS(a[i].rows() == a[0].rows() && a[i].cols() == a[0].cols());
    EGEMM_EXPECTS(b[i].rows() == b[0].rows() && b[i].cols() == b[0].cols());
  }
  // One resolution against the batch-wide worst-case scale context: the
  // max over the items' |a|, |b|, |c| dominates every per-item context,
  // so the selected rung's bound is sound for the whole batch and all
  // items share one scheme (hence one plan).
  core::AccuracyContract resolved = contract;
  const bool use_c = !c.empty() && params.beta != 0.0f;
  if (resolved.a_scale <= 0.0) {
    for (const Matrix& item : a) {
      resolved.a_scale = std::max(resolved.a_scale, max_abs(item));
    }
  }
  if (resolved.b_scale <= 0.0) {
    for (const Matrix& item : b) {
      resolved.b_scale = std::max(resolved.b_scale, max_abs(item));
    }
  }
  if (resolved.c_abs <= 0.0 && use_c) {
    for (const Matrix& item : c) {
      resolved.c_abs = std::max(resolved.c_abs, max_abs(item));
    }
  }
  const core::ContractResolution resolution = gemm_ex_contract_resolution(
      a[0], b[0], use_c ? &c[0] : nullptr, params, resolved);
  if (!resolution.feasible) {
    throw_contract_infeasible(contract, resolution);
  }
  std::vector<GroupedGemmItem> items(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    items[i].a = &a[i];
    items[i].b = &b[i];
    items[i].c = c.empty() ? nullptr : &c[i];
    items[i].d = &d[i];
    items[i].params = params;
  }
  run_grouped_items(ctx, items,
                    [&ctx, &resolution](std::size_t, std::size_t m,
                                        std::size_t n, std::size_t k) {
                      return ctx.plan_scheme(resolution.scheme, m, n, k);
                    });
  return d;
}

std::vector<Matrix> gemm_batched(std::span<const Matrix> a,
                                 std::span<const Matrix> b,
                                 std::span<const Matrix> c,
                                 const GemmExParams& params,
                                 const core::AccuracyContract& contract) {
  return gemm_batched(default_context(), a, b, c, params, contract);
}

void gemm_grouped(GemmContext& ctx, std::span<const GroupedGemmItem> items,
                  const core::AccuracyContract& contract) {
  // Per-item resolution, exactly as the contract gemm_ex would do it, all
  // up front so an infeasible item throws before anything executes.
  std::vector<core::SchemeId> schemes;
  schemes.reserve(items.size());
  for (const GroupedGemmItem& item : items) {
    EGEMM_EXPECTS(item.a != nullptr && item.b != nullptr &&
                  item.d != nullptr);
    const core::ContractResolution resolution = gemm_ex_contract_resolution(
        *item.a, *item.b, item.c, item.params, contract);
    if (!resolution.feasible) {
      throw_contract_infeasible(contract, resolution);
    }
    schemes.push_back(resolution.scheme);
  }
  run_grouped_items(ctx, items,
                    [&ctx, &schemes](std::size_t i, std::size_t m,
                                     std::size_t n, std::size_t k) {
                      return ctx.plan_scheme(schemes[i], m, n, k);
                    });
}

void gemm_grouped(std::span<const GroupedGemmItem> items,
                  const core::AccuracyContract& contract) {
  gemm_grouped(default_context(), items, contract);
}

KernelTiming time_gemm(Backend backend, std::uint64_t m, std::uint64_t n,
                       std::uint64_t k, const tcsim::GpuSpec& spec) {
  switch (backend) {
    case Backend::kEgemmTC:
      return egemm_timing(m, n, k, spec);
    case Backend::kCublasFp32:
      return sgemm_fp32_timing(m, n, k, spec);
    case Backend::kCublasTcHalf:
      return tc_half_timing(m, n, k, spec);
    case Backend::kCublasTcEmulation:
      return tc_emulation_timing(m, n, k, spec);
    case Backend::kSdkFp32:
      return sdk_gemm_timing(m, n, k, spec);
    case Backend::kMarkidis:
      return markidis_timing(m, n, k, spec);
    case Backend::kDekker: {
      EgemmOptions opts;
      opts.emulation_instructions = 16;
      return egemm_timing(m, n, k, spec, opts);
    }
  }
  EGEMM_EXPECTS(!"unreachable backend");
  return KernelTiming{};
}

}  // namespace egemm::gemm
