// kle_matfree: the matrix-free KLE solve (hierarchical ACA operator +
// Lanczos), which bypasses Delaunay meshing, the artifact store, sampling
// and timing altogether.
//
// Each op is one solve_kle with OperatorMode::kMatrixFree on a structured
// mesh of n ~ 10^4 triangles: 8 eigenpairs, ACA tolerance 1e-8, the
// pinned thread count for build and apply. The workload seed picks the
// Lanczos start vector of each op.
//
// Check: every eigenvalue is within 1e-6 relative of a reference solved
// once with the dense assembled path and kept beside the benchmark
// (perfbench/reference/), so no n^2 reference solve runs here.
//
// Traced ops call core::build_hmat_operator and linalg::lanczos_largest
// directly and time each.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common.h"
#include "core/kle_solver.h"
#include "core/matfree_operator.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "linalg/lanczos.h"
#include "mesh/structured_mesher.h"

namespace perfbench {
namespace {

using namespace sckl;

constexpr std::size_t kTargetTriangles = 10'000;
constexpr std::size_t kPairs = 8;
constexpr std::size_t kGuardPairs = 6;
constexpr double kAcaTolerance = 1e-8;
constexpr double kLambdaTolerance = 1e-6;
constexpr const char* kReferenceFile = "matfree_lambda_n10000.txt";

mesh::TriMesh make_mesh() {
  return mesh::structured_mesh_for_count(geometry::BoundingBox::unit_die(),
                                         kTargetTriangles);
}

core::MatfreeOptions matfree_options(std::size_t threads) {
  core::MatfreeOptions options;
  options.aca_tolerance = kAcaTolerance;
  options.num_threads = threads;
  return options;
}

/// Largest relative distance from each eigenvalue to its closest reference
/// value. The square die's spectrum has exactly degenerate pairs whose
/// order a perturbed operator may swap, so pairs are matched by value, not
/// position (the reference carries guard pairs past the cut for this).
/// Pairs decayed below 1e-9 lambda_0 are scored against lambda_0.
double lambda_error(const linalg::Vector& values,
                    const std::vector<double>& reference) {
  const double lead = reference.front();
  double worst = 0.0;
  for (const double got : values) {
    double best = std::numeric_limits<double>::infinity();
    for (const double ref : reference) {
      const double scale = ref > 1e-9 * lead ? ref : lead;
      best = std::min(best, std::abs(got - ref) / scale);
    }
    worst = std::max(worst, best);
  }
  return worst;
}

std::vector<double> read_reference(const std::string& dir, std::size_t n) {
  std::ifstream in(dir + "/" + kReferenceFile);
  if (!in) throw std::runtime_error("kle_matfree: reference file missing");
  std::string token;
  std::size_t ref_n = 0;
  in >> token >> ref_n;
  if (token != "n" || ref_n != n)
    throw std::runtime_error("kle_matfree: reference is for another mesh");
  std::vector<double> values;
  for (double v; in >> v;) values.push_back(v);
  if (values.size() < kPairs)
    throw std::runtime_error("kle_matfree: reference too short");
  return values;
}

linalg::LanczosOptions lanczos_options(std::size_t n, std::uint64_t seed) {
  linalg::LanczosOptions options;
  options.num_eigenpairs = kPairs;
  options.max_subspace = std::min<std::size_t>(n, 2 * kPairs + 160);
  options.tolerance = 1e-9;
  options.seed = seed;
  return options;
}

}  // namespace

void write_matfree_reference(const std::string& path) {
  const mesh::TriMesh mesh = make_mesh();
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  core::KleOptions options;
  options.num_eigenpairs = kPairs + kGuardPairs;
  options.backend = core::KleBackend::kLanczos;
  const core::KleResult dense = core::solve_kle(mesh, kernel, options);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "n %zu\n", mesh.num_triangles());
  for (const double v : dense.eigenvalues()) std::fprintf(out, "%.17g\n", v);
  std::fclose(out);
}

Report run_kle_matfree(const Args& args) {
  Report report;
  const std::size_t threads = pinned_threads();
  std::unique_ptr<mesh::TriMesh> mesh;
  std::unique_ptr<kernels::GaussianKernel> kernel;
  std::vector<double> reference;

  // Set-up, repeated cold before every op (it takes about a millisecond,
  // too little to time steadily once at process start).
  const auto setup = [&] {
    kernel.reset();
    mesh.reset();
    mesh = std::make_unique<mesh::TriMesh>(make_mesh());
    kernel =
        std::make_unique<kernels::GaussianKernel>(kernels::paper_gaussian_c());
    reference = read_reference(args.refdir, mesh->num_triangles());
  };
  warm_up(setup);
  const std::size_t n = mesh->num_triangles();

  LayerClock layers;
  std::vector<double> compressed_mb;
  std::vector<double> mean_rank;
  std::vector<double> errors;

  const auto check = [&](const linalg::Vector& values, const char* what) {
    const double err = lambda_error(values, reference);
    errors.push_back(err);
    if (values.size() != kPairs || !(err <= kLambdaTolerance)) {
      report.fail_check(std::string("kle_matfree: ") + what +
                        " eigenvalues off the reference");
      return false;
    }
    return true;
  };

  const auto untraced_op = [&](std::size_t i, double& timed_ms) {
    core::KleOptions options;
    options.num_eigenpairs = kPairs;
    options.operator_mode = core::OperatorMode::kMatrixFree;
    options.matfree = matfree_options(threads);
    options.lanczos_seed = mix(args.seed, i);
    core::KleSolveInfo info;
    const Clock::time_point start = Clock::now();
    const core::KleResult kle = core::solve_kle(*mesh, *kernel, options, &info);
    timed_ms = seconds_since(start) * 1e3;
    bool ok = check(kle.eigenvalues(), "solve_kle");
    if (info.operator_used != "hmat") {
      report.fail_check("kle_matfree: solve fell back from the H-matrix");
      ok = false;
    }
    return ok;
  };

  const auto traced_op = [&](std::size_t i, double& timed_ms) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<linalg::HMatrix> hmat;
    layers.time("linalg.hmat_build", [&] {
      hmat = core::build_hmat_operator(*mesh, *kernel,
                                       matfree_options(threads));
    });
    linalg::SymmetricEigenResult eigen;
    linalg::LanczosInfo info;
    layers.time("linalg.hmat_lanczos", [&] {
      eigen = linalg::lanczos_largest(
          *hmat, lanczos_options(n, mix(args.seed, i)), &info);
    });
    timed_ms = seconds_since(start) * 1e3;
    layers.end_op();
    compressed_mb.push_back(static_cast<double>(hmat->stats().compressed_bytes) /
                            (1024.0 * 1024.0));
    mean_rank.push_back(hmat->stats().mean_rank);
    linalg::Vector values(eigen.values.begin(),
                          eigen.values.begin() + kPairs);
    return check(values, "traced") && info.converged;
  };

  const auto [untraced, traced] = run_ops_maybe_traced(
      args, 3, [&](std::size_t i, bool trace, double& ms) {
        return trace ? traced_op(i, ms) : untraced_op(i, ms);
      },
      setup);

  if (!args.trace) {
    report_end_to_end(untraced, 0.90, report);
    report_setup(median(untraced.setup_s), report);
    double busy_s = 0.0;
    for (const double ms : untraced.op_ms) busy_s += ms / 1e3;
    report_rate(static_cast<double>(untraced.attempted - untraced.failed),
                busy_s, report);
  } else {
    report.attempted = untraced.attempted;
    report.failed = untraced.failed;
    report.set("linalg.hmat_build_ms", layers.p50_ms("linalg.hmat_build"), "ms");
    report.set("linalg.hmat_lanczos_ms", layers.p50_ms("linalg.hmat_lanczos"),
               "ms");
    report.set("linalg.hmat_compressed_mb", median(compressed_mb), "MiB");
    report.set("linalg.hmat_mean_rank", median(mean_rank), "rank");
    report.set("linalg.lambda_rel_err",
               *std::max_element(errors.begin(), errors.end()), "ratio");
    report_trace_overhead(untraced, traced, layers, report);
  }
  report.context["n"] = std::to_string(n);
  return report;
}

}  // namespace perfbench
