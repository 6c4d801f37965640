#include "core/kle_solver.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "linalg/lanczos.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sckl::core {

KleResult::KleResult(const mesh::TriMesh& mesh, linalg::Vector eigenvalues,
                     linalg::Matrix coefficients)
    : mesh_(mesh),
      eigenvalues_(std::move(eigenvalues)),
      coefficients_(std::move(coefficients)),
      locator_(mesh.to_triangles(), mesh.bounds()) {
  require(coefficients_.rows() == mesh.num_triangles(),
          "KleResult: coefficient rows must match mesh size");
  require(coefficients_.cols() == eigenvalues_.size(),
          "KleResult: coefficient columns must match eigenvalue count");
  // Quadrature noise can push trailing eigenvalues of a PSD kernel slightly
  // negative; clamp so sqrt(lambda) in eq. 28 stays real, and account for
  // what was removed so health validation can flag excessive clamping.
  for (auto& value : eigenvalues_) {
    if (value < 0.0) {
      ++clamped_count_;
      clamped_magnitude_ -= value;
      value = 0.0;
    }
  }
}

double KleResult::eigenvalue(std::size_t j) const {
  require(j < eigenvalues_.size(), "KleResult::eigenvalue: out of range");
  return eigenvalues_[j];
}

double KleResult::coefficient(std::size_t i, std::size_t j) const {
  require(i < coefficients_.rows() && j < coefficients_.cols(),
          "KleResult::coefficient: out of range");
  return coefficients_(i, j);
}

std::size_t KleResult::triangle_of(geometry::Point2 x) const {
  return locator_.find_containing_or_nearest(x);
}

std::optional<std::size_t> KleResult::triangle_containing(
    geometry::Point2 x) const {
  return locator_.find_containing(x);
}

double KleResult::eigenfunction_value(std::size_t j,
                                      geometry::Point2 x) const {
  return coefficient(triangle_of(x), j);
}

double KleResult::reconstruct_kernel(geometry::Point2 x, geometry::Point2 y,
                                     std::size_t r) const {
  require(r <= eigenvalues_.size(),
          "KleResult::reconstruct_kernel: r exceeds computed pairs");
  const std::size_t ti = triangle_of(x);
  const std::size_t tk = triangle_of(y);
  double sum = 0.0;
  for (std::size_t j = 0; j < r; ++j)
    sum += eigenvalues_[j] * coefficients_(ti, j) * coefficients_(tk, j);
  return sum;
}

linalg::Matrix KleResult::reconstruction_operator(std::size_t r) const {
  require(r > 0 && r <= eigenvalues_.size(),
          "KleResult::reconstruction_operator: bad r");
  linalg::Matrix d_lambda(coefficients_.rows(), r);
  for (std::size_t j = 0; j < r; ++j) {
    const double root = std::sqrt(eigenvalues_[j]);
    for (std::size_t i = 0; i < coefficients_.rows(); ++i)
      d_lambda(i, j) = coefficients_(i, j) * root;
  }
  return d_lambda;
}

double KleResult::captured_variance_fraction(std::size_t r,
                                             double total) const {
  require(r <= eigenvalues_.size(),
          "KleResult::captured_variance_fraction: bad r");
  require(total > 0.0, "KleResult::captured_variance_fraction: bad total");
  double sum = 0.0;
  for (std::size_t j = 0; j < r; ++j) sum += eigenvalues_[j];
  return sum / total;
}

namespace {

// Assembles the dense Galerkin matrix and rejects NaN/Inf before it can
// poison the whole spectrum: one bad kernel evaluation would otherwise
// surface as mysteriously wrong eigenpairs.
linalg::Matrix assemble_checked(const mesh::TriMesh& mesh,
                                const kernels::CovarianceKernel& kernel,
                                QuadratureRule quadrature) {
  const std::size_t n = mesh.num_triangles();
  const linalg::Matrix b = assemble_galerkin_matrix(mesh, kernel, quadrature);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = b.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j)
      if (!std::isfinite(row[j]))
        throw Error("solve_kle: Galerkin matrix entry (" + std::to_string(i) +
                        ", " + std::to_string(j) +
                        ") is not finite — kernel '" + kernel.name() +
                        "' produced NaN/Inf",
                    ErrorCode::kNonFinite);
  }
  return b;
}

linalg::LanczosOptions lanczos_options_for(const KleOptions& options,
                                           std::size_t n, std::size_t m) {
  linalg::LanczosOptions lanczos;
  lanczos.num_eigenpairs = m;
  lanczos.seed = options.lanczos_seed;
  // Clustered trailing eigenvalues of smooth kernels converge slowly;
  // give the subspace generous room by default. The matrix-free override
  // exists because at million-triangle n the Krylov basis (8n bytes per
  // vector) dominates memory, not because fewer iterations are desirable.
  const std::size_t cap = options.operator_mode == OperatorMode::kMatrixFree
                              ? options.matfree.lanczos_max_subspace
                              : 0;
  lanczos.max_subspace =
      cap == 0 ? std::min(n, 2 * m + 160) : std::max(std::min(cap, n), m);
  lanczos.tolerance = 1e-9;
  return lanczos;
}

/// One rung of the eigensolve ladder: Lanczos on the operator `build`
/// returns. `name` is what KleSolveInfo::operator_used reports when the
/// rung produces the result; `absorbs_overload` also lets a memory-budget
/// failure (kOverloaded) move down the ladder, besides kNoConvergence.
struct LanczosRung {
  const char* name;
  std::function<std::unique_ptr<linalg::KernelOperator>()> build;
  bool absorbs_overload;
};

}  // namespace

KleResult solve_kle(const mesh::TriMesh& mesh,
                    const kernels::CovarianceKernel& kernel,
                    const KleOptions& options, KleSolveInfo* info) {
  const std::size_t n = mesh.num_triangles();
  const std::size_t m = std::min(options.num_eigenpairs, n);
  require(m > 0, "solve_kle: need at least one eigenpair");
  obs::Span span("core.solve_kle");
  obs::counter("sckl.core.kle_solves").add(1);
  KleSolveInfo scratch_info;
  KleSolveInfo& telemetry = info != nullptr ? *info : scratch_info;
  telemetry = KleSolveInfo{};
  telemetry.requested = options.backend;

  // The ordered ladder of Lanczos operators, followed by the dense solve:
  //   assembled, Lanczos backend: [dense B]
  //   matrix-free:                [H-matrix, exact matvec]
  //   assembled, dense backend:   []
  const bool matrix_free = options.operator_mode == OperatorMode::kMatrixFree;
  linalg::Matrix b;  // the assembled matrix; built lazily when matrix-free
  std::vector<LanczosRung> ladder;
  if (matrix_free) {
    require(options.quadrature == QuadratureRule::kCentroid1,
            "solve_kle: the matrix-free path evaluates centroid-rule entries "
            "on the fly and supports no other quadrature");
    obs::counter("sckl.core.kle_matfree_solves").add(1);
    ladder.push_back({"hmat",
                      [&]() -> std::unique_ptr<linalg::KernelOperator> {
                        telemetry.hmat_attempted = true;
                        std::unique_ptr<linalg::HMatrix> hmat =
                            build_hmat_operator(mesh, kernel, options.matfree);
                        telemetry.hmat = hmat->stats();
                        return hmat;
                      },
                      true});
    ladder.push_back({"exact",
                      [&]() -> std::unique_ptr<linalg::KernelOperator> {
                        return std::make_unique<ExactKernelOperator>(
                            mesh, kernel, options.matfree.num_threads);
                      },
                      false});
  } else {
    b = assemble_checked(mesh, kernel, options.quadrature);
    const bool lanczos = options.backend == KleBackend::kLanczos ||
                         (options.backend == KleBackend::kAuto && m * 3 < n);
    if (lanczos)
      ladder.push_back({"dense",
                        [&]() -> std::unique_ptr<linalg::KernelOperator> {
                          return std::make_unique<linalg::DenseKernelOperator>(
                              b);
                        },
                        false});
  }
  telemetry.used = ladder.empty() ? KleBackend::kDense : KleBackend::kLanczos;

  obs::Span eigensolve_span("core.eigensolve");
  const linalg::LanczosOptions lanczos = lanczos_options_for(options, n, m);
  std::optional<linalg::SymmetricEigenResult> eigen;
  std::string failure;  // what() of the last absorbed Lanczos failure
  for (std::size_t rung = 0; rung < ladder.size() && !eigen; ++rung) {
    linalg::LanczosInfo lanczos_info;
    try {
      const std::unique_ptr<linalg::KernelOperator> op = ladder[rung].build();
      eigen = linalg::lanczos_largest(*op, lanczos, &lanczos_info);
      telemetry.operator_used = ladder[rung].name;
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kNoConvergence &&
          !(ladder[rung].absorbs_overload &&
            e.code() == ErrorCode::kOverloaded))
        throw;
      failure = e.what();
      // A hop to the next operator is a matrix-free fallback; a hop off
      // the last rung is the Lanczos -> dense fallback.
      if (rung + 1 < ladder.size()) {
        telemetry.hmat_failed = true;
        telemetry.hmat_failure_reason = failure;
        obs::counter("sckl.core.kle_matfree_fallbacks").add(1);
      } else {
        telemetry.fallback = true;
        telemetry.fallback_reason = failure;
        obs::counter("sckl.core.kle_fallbacks").add(1);
      }
    }
    telemetry.lanczos = lanczos_info;
  }
  if (!eigen) {
    if (matrix_free) {
      // The dense stage allocates 8 n^2 bytes — the exact thing this mode
      // exists to avoid. Refuse beyond the configured ceiling.
      if (n > options.matfree.dense_fallback_max_n)
        throw Error(
            "solve_kle: matrix-free Lanczos did not converge and n = " +
                std::to_string(n) + " exceeds dense_fallback_max_n = " +
                std::to_string(options.matfree.dense_fallback_max_n) +
                " (refusing the n^2 dense fallback); original failure: " +
                failure,
            ErrorCode::kNoConvergence);
      b = assemble_checked(mesh, kernel, options.quadrature);
    }
    telemetry.used = KleBackend::kDense;
    telemetry.operator_used = "dense";
    obs::Span dense_span("linalg.dense_eigen");
    obs::counter("sckl.linalg.dense_eigen.solves").add(1);
    eigen = linalg::symmetric_eigen(b);
  }

  // Un-scale: d = Phi^{-1/2} u, i.e. d_i = u_i / sqrt(a_i).
  linalg::Matrix coefficients(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_root = 1.0 / std::sqrt(mesh.area(i));
    for (std::size_t j = 0; j < m; ++j)
      coefficients(i, j) = eigen->vectors(i, j) * inv_root;
  }
  linalg::Vector values(eigen->values.begin(), eigen->values.begin() + m);
  KleResult result(mesh, std::move(values), std::move(coefficients));
  if (result.clamped_count() > 0)
    obs::counter("sckl.core.clamped_eigenvalues").add(result.clamped_count());
  telemetry.clamped_eigenvalues = result.clamped_count();
  telemetry.clamped_magnitude = result.clamped_magnitude();
  return result;
}

}  // namespace sckl::core
