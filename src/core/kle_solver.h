// Karhunen-Loeve Expansion solver — the paper's core algorithm.
//
// Pipeline (Sec. 3.2/4): assemble the scaled Galerkin matrix B from the mesh
// and kernel, solve the symmetric eigenproblem for the m largest pairs,
// un-scale the eigenvectors (d = Phi^{-1/2} u) into piecewise-constant
// eigenfunction coefficients, and expose:
//   - eigenvalues lambda_j (descending; tiny negatives from quadrature noise
//     are clamped to zero and reported),
//   - eigenfunction evaluation f_j(x) (constant per triangle, located via a
//     spatial grid),
//   - truncated kernel reconstruction K_hat(x,y) = sum lambda_j f_j(x) f_j(y)
//     (Fig. 3b),
//   - the reconstruction operator D_lambda = D_r sqrt(Lambda_r) of eq. 28.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/galerkin.h"
#include "core/matfree_operator.h"
#include "geometry/spatial_grid.h"
#include "linalg/lanczos.h"

namespace sckl::core {

/// Eigensolver backend selection.
enum class KleBackend {
  kAuto,    // Lanczos when m << n, dense otherwise
  kDense,   // Householder + QL on the full matrix
  kLanczos, // iterative, top-m only
};

/// How the Galerkin operator is realized for the eigensolve.
enum class OperatorMode {
  /// Assemble the dense n x n matrix (the default; exact, bit-stable, and
  /// fine up to ~10^4 triangles where 8 n^2 bytes stops fitting).
  kAssembled,
  /// Never materialize the matrix: Lanczos runs on the hierarchical
  /// ACA-compressed operator, falling back to the exact on-the-fly matvec
  /// and finally (only when n <= matfree.dense_fallback_max_n) to the
  /// assembled path. Eigenvalue-accurate to the ACA tolerance but not
  /// bit-stable across configurations — see DESIGN.md §14. The centroid
  /// quadrature rule is implied; `backend` is ignored (Lanczos is the only
  /// matrix-free eigensolver).
  kMatrixFree,
};

/// Options for solve_kle().
struct KleOptions {
  std::size_t num_eigenpairs = 200;  // m: how many pairs to compute
  QuadratureRule quadrature = QuadratureRule::kCentroid1;
  KleBackend backend = KleBackend::kAuto;
  std::uint64_t lanczos_seed = 42;
  OperatorMode operator_mode = OperatorMode::kAssembled;
  MatfreeOptions matfree;  // tuning of the kMatrixFree path
};

/// Telemetry of one solve_kle() call: which backend and operator actually
/// produced the result, which rungs of the fallback ladder fired and why,
/// and the negative-eigenvalue clamp accounting of the returned spectrum.
/// Pass the optional out-parameter to record it; solving is unaffected.
struct KleSolveInfo {
  KleBackend requested = KleBackend::kAuto;  // backend the caller asked for
  KleBackend used = KleBackend::kDense;      // backend that produced λ, d
  bool fallback = false;              // Lanczos failed, dense recovered
  std::string fallback_reason;        // what() of the Lanczos failure
  linalg::LanczosInfo lanczos;        // iteration telemetry (when attempted)
  std::size_t clamped_eigenvalues = 0;  // trailing negatives clamped to 0
  double clamped_magnitude = 0.0;       // total magnitude removed by clamping

  // Matrix-free telemetry (operator_mode == kMatrixFree only).
  // Operator that produced λ, d: "hmat", "exact", or "dense" (the
  // assembled matrix, through Lanczos or the dense solve). Set in both
  // operator modes.
  std::string operator_used;
  bool hmat_attempted = false;      // a hierarchical build was tried
  bool hmat_failed = false;         // it failed; chain moved to exact matvec
  std::string hmat_failure_reason;  // what() of that failure
  linalg::HmatStats hmat;           // compression stats of a completed build
};

/// Result of the numerical KLE of one kernel on one mesh.
///
/// LIFETIME CONTRACT — READ BEFORE STORING A KleResult ANYWHERE:
/// KleResult deliberately BORROWS its mesh (it holds `const TriMesh&` and
/// never copies it), so the mesh passed to solve_kle()/the constructor must
/// strictly outlive the result. Returning a KleResult from a function whose
/// local mesh dies, or caching one beyond its mesh's scope, is a dangling
/// reference and undefined behaviour. When ownership is needed — persisted
/// artifacts, caches, anything deserialized — use store::StoredKleResult
/// (store/kle_io.h), which owns the mesh via shared_ptr and exposes the same
/// KleResult view.
class KleResult {
 public:
  KleResult(const mesh::TriMesh& mesh, linalg::Vector eigenvalues,
            linalg::Matrix coefficients);

  /// Number of computed eigenpairs m.
  std::size_t num_eigenpairs() const { return eigenvalues_.size(); }

  /// Number of basis functions n (mesh triangles).
  std::size_t basis_size() const { return coefficients_.rows(); }

  /// j-th largest eigenvalue (clamped at 0).
  double eigenvalue(std::size_t j) const;
  const linalg::Vector& eigenvalues() const { return eigenvalues_; }

  /// Coefficient d_{i,j} of eigenfunction j on triangle i. Eigenfunctions
  /// are Phi-orthonormal: sum_i d_{i,j}^2 a_i = 1.
  double coefficient(std::size_t i, std::size_t j) const;
  const linalg::Matrix& coefficients() const { return coefficients_; }

  /// Eigenfunction value f_j(x); x is located in the mesh via the index.
  double eigenfunction_value(std::size_t j, geometry::Point2 x) const;

  /// Eigenfunction value on a known triangle (no lookup).
  double eigenfunction_on_triangle(std::size_t j, std::size_t tri) const {
    return coefficient(tri, j);
  }

  /// Triangle containing x (nearest for boundary/degenerate points).
  std::size_t triangle_of(geometry::Point2 x) const;

  /// Triangle strictly containing x, or nullopt when x lies outside every
  /// mesh triangle (e.g. a gate legalized marginally off the die). Callers
  /// that resolve such points to the nearest triangle should count them —
  /// see KleField::out_of_mesh_count().
  std::optional<std::size_t> triangle_containing(geometry::Point2 x) const;

  /// Number of eigenvalues that came in negative (quadrature noise) and
  /// were clamped to zero by the constructor, and the total magnitude
  /// removed. Large clamped mass signals an invalid or mis-assembled kernel.
  std::size_t clamped_count() const { return clamped_count_; }
  double clamped_magnitude() const { return clamped_magnitude_; }

  /// Truncated reconstruction K_hat(x, y) from the first r eigenpairs.
  double reconstruct_kernel(geometry::Point2 x, geometry::Point2 y,
                            std::size_t r) const;

  /// D_lambda = D_r * sqrt(Lambda_r): the n x r linear map of eq. 28 taking
  /// a reduced sample xi to per-triangle parameter values.
  linalg::Matrix reconstruction_operator(std::size_t r) const;

  /// Fraction of total basis variance captured by the first r eigenvalues.
  /// Total variance of the projected process equals the matrix trace, which
  /// for the centroid rule is sum_i K(c_i,c_i) a_i = area(D) for a
  /// normalized kernel.
  double captured_variance_fraction(std::size_t r, double total) const;

  const mesh::TriMesh& mesh() const { return mesh_; }

 private:
  const mesh::TriMesh& mesh_;  // owned by the caller; must outlive the result
  linalg::Vector eigenvalues_;
  linalg::Matrix coefficients_;  // n x m, column j = d_j
  geometry::SpatialGrid locator_;
  std::size_t clamped_count_ = 0;
  double clamped_magnitude_ = 0.0;
};

/// Computes the KLE of `kernel` on `mesh`. The mesh must outlive the result
/// (see the KleResult lifetime contract above).
///
/// Resilience: a Galerkin matrix containing NaN/Inf is rejected up front
/// (sckl::Error, code kNonFinite) instead of letting NaN propagate into the
/// spectrum. The eigensolve is one ordered ladder: Lanczos on each operator
/// in turn, then the dense solve of the assembled matrix. The ladder is
/// [assembled matrix] for the Lanczos backend, [] for the dense backend,
/// and [hierarchical ACA operator, exact on-the-fly matvec] in
/// kMatrixFree mode. A rung that fails with kNoConvergence (or, for the
/// ACA operator, kOverloaded: its memory budget) hands over to the next —
/// callers lose speed, not the answer. In kMatrixFree mode the final dense
/// stage only engages when n <= matfree.dense_fallback_max_n (above that
/// the solve throws rather than allocate n^2 doubles). Each hop is
/// recorded in `info` (hmat_failed / fallback / operator_used).
KleResult solve_kle(const mesh::TriMesh& mesh,
                    const kernels::CovarianceKernel& kernel,
                    const KleOptions& options = {},
                    KleSolveInfo* info = nullptr);

}  // namespace sckl::core
