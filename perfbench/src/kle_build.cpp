// kle_build: the offline half of the paper — time-to-model.
//
// Each op is a cold KleArtifactStore::get_or_compute on a key never seen
// before (paper mesh at 0.1% max area, n = 2,447; Gaussian kernel; m = 50;
// centroid rule; assembled + Lanczos), followed by a re-fetch of the same
// key from disk through a second store handle. Every op builds the same
// mesh (mesher seed 8, the ssta::ExperimentPipeline default), so every op
// and every workload seed does the same work; the key is made new by a
// relative perturbation of the kernel parameter below 1e-6, drawn from the
// workload seed and the op index.
//
// Checks per op: Lanczos ran once, converged below its subspace cap and
// needed no dense fallback; core::check_kle_health passes; the disk
// re-fetch is bit-identical to the solved artifact.
//
// Traced ops make the same build out of the layers' public functions —
// mesh::paper_mesh, core::assemble_galerkin_matrix,
// linalg::lanczos_largest, store::write_kle_file / read_kle_file — and
// time each call.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common.h"
#include "core/galerkin.h"
#include "core/kle_health.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "linalg/lanczos.h"
#include "mesh/refine.h"
#include "obs/metrics.h"
#include "store/artifact_store.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace sckl;

constexpr double kAreaFraction = 0.001;
constexpr std::uint64_t kEigenpairs = 50;
constexpr std::uint64_t kMesherSeed = 8;

/// The artifact config of key `key`: the kernel parameter moves by at most
/// 1e-6 relative, which changes the content hash and nothing measurable.
store::KleArtifactConfig config_for(double kernel_c, std::uint64_t key,
                                    double area_fraction) {
  store::KleArtifactConfig config;
  config.kernel_id = "gaussian";
  config.kernel_params = {
      kernel_c * (1.0 + 1e-12 * static_cast<double>(1 + key % 1'000'000))};
  config.mesh.kind = store::MeshSpec::Kind::kPaperRefined;
  config.mesh.area_fraction = area_fraction;
  config.mesh.mesher_seed = kMesherSeed;
  config.quadrature = core::QuadratureRule::kCentroid1;
  config.num_eigenpairs = kEigenpairs;
  return config;
}

/// Bitwise equality of two artifacts: spectrum, coefficients and mesh.
bool same_artifact(const store::StoredKleResult& a,
                   const store::StoredKleResult& b) {
  const linalg::Vector& va = a.kle().eigenvalues();
  const linalg::Vector& vb = b.kle().eigenvalues();
  const linalg::Matrix& ca = a.kle().coefficients();
  const linalg::Matrix& cb = b.kle().coefficients();
  return va.size() == vb.size() &&
         hash_doubles(va.data(), va.size()) ==
             hash_doubles(vb.data(), vb.size()) &&
         ca.rows() == cb.rows() && ca.cols() == cb.cols() &&
         hash_doubles(ca.data(), ca.rows() * ca.cols()) ==
             hash_doubles(cb.data(), cb.rows() * cb.cols()) &&
         a.mesh().vertices() == b.mesh().vertices() &&
         a.mesh().triangle_indices() == b.mesh().triangle_indices();
}

/// The Lanczos options solve_kle uses for an assembled solve of m pairs.
linalg::LanczosOptions lanczos_options(std::size_t n) {
  linalg::LanczosOptions options;
  options.num_eigenpairs = kEigenpairs;
  options.max_subspace = std::min<std::size_t>(n, 2 * kEigenpairs + 160);
  options.tolerance = 1e-9;
  options.seed = 42;
  return options;
}

}  // namespace

Report run_kle_build(const Args& args) {
  Report report;
  const fs::path root = "kle_store";
  double kernel_c = 0.0;
  std::unique_ptr<store::KleArtifactStore> solver_store;
  std::unique_ptr<store::KleArtifactStore> reader_store;

  // Set-up, repeated cold before every op: fresh store root, both handles,
  // the kernel fit, and one small build through the store. A set-up of a
  // few milliseconds timed only at process start reads whatever state that
  // core happens to be in; timed before every op it sees the whole run.
  const auto setup = [&] {
    reader_store.reset();
    solver_store.reset();
    fs::remove_all(root);
    kernel_c = kernels::paper_gaussian_c();
    solver_store = std::make_unique<store::KleArtifactStore>(root);
    reader_store = std::make_unique<store::KleArtifactStore>(root);
    const store::KleArtifactConfig warm = config_for(kernel_c, 0, 0.01);
    solver_store->get_or_compute(
        warm, kernels::GaussianKernel(warm.kernel_params[0]));
    solver_store->drop_memory_cache();
  };
  warm_up(setup);

  obs::Counter& fallbacks = obs::counter("sckl.core.kle_fallbacks");
  obs::Counter& lanczos_solves = obs::counter("sckl.linalg.lanczos.solves");
  obs::Counter& lanczos_iters = obs::counter("sckl.linalg.lanczos.iterations");

  LayerClock layers;
  std::vector<double> triangles;
  std::vector<double> iterations;
  std::vector<double> artifact_mb;

  const auto untraced_op = [&](std::size_t i, double& timed_ms) {
    const store::KleArtifactConfig config =
        config_for(kernel_c, mix(args.seed, i), kAreaFraction);
    const kernels::GaussianKernel op_kernel(config.kernel_params[0]);
    const std::uint64_t fallbacks0 = fallbacks.value();
    const std::uint64_t solves0 = lanczos_solves.value();
    const std::uint64_t iters0 = lanczos_iters.value();

    const Clock::time_point start = Clock::now();
    const store::FetchResult solved =
        solver_store->get_or_compute(config, op_kernel);
    const store::FetchResult loaded =
        reader_store->get_or_compute(config, op_kernel);
    timed_ms = seconds_since(start) * 1e3;

    bool ok = true;
    const std::size_t n = solved.artifact->mesh().num_triangles();
    if (solved.source != store::FetchSource::kSolved ||
        loaded.source != store::FetchSource::kDisk) {
      report.fail_check("kle_build: expected a cold solve then a disk load");
      ok = false;
    }
    if (fallbacks.value() != fallbacks0 ||
        lanczos_solves.value() != solves0 + 1 ||
        lanczos_iters.value() - iters0 >= lanczos_options(n).max_subspace) {
      report.fail_check("kle_build: Lanczos fell back or hit its cap");
      ok = false;
    }
    if (!core::check_kle_health(solved.artifact->kle()).ok()) {
      report.fail_check("kle_build: KLE health check failed");
      ok = false;
    }
    if (!same_artifact(*solved.artifact, *loaded.artifact)) {
      report.fail_check("kle_build: disk re-fetch differs from the solve");
      ok = false;
    }
    solver_store->drop_memory_cache();
    reader_store->drop_memory_cache();
    fs::remove(solver_store->path_for(config));
    return ok;
  };

  const auto traced_op = [&](std::size_t i, double& timed_ms) {
    const store::KleArtifactConfig config = config_for(
        kernel_c, mix(args.seed, 1'000'000 + i), kAreaFraction);
    const kernels::GaussianKernel op_kernel(config.kernel_params[0]);
    const Clock::time_point start = Clock::now();
    std::shared_ptr<const mesh::TriMesh> mesh;
    layers.time("mesh", [&] {
      mesh = std::make_shared<const mesh::TriMesh>(mesh::paper_mesh(
          config.die, config.mesh.area_fraction, config.mesh.mesher_seed));
    });
    const std::size_t n = mesh->num_triangles();
    linalg::Matrix b;
    layers.time("core.assemble", [&] {
      b = core::assemble_galerkin_matrix(*mesh, op_kernel, config.quadrature);
    });
    linalg::SymmetricEigenResult eigen;
    linalg::LanczosInfo info;
    layers.time("linalg.lanczos", [&] {
      eigen = linalg::lanczos_largest(b, lanczos_options(n), &info);
    });
    // Un-scaling d = Phi^{-1/2} u and the result view (core).
    std::unique_ptr<store::StoredKleResult> stored;
    layers.time("core.result", [&] {
      linalg::Matrix coefficients(n, kEigenpairs);
      for (std::size_t t = 0; t < n; ++t) {
        const double inv_root = 1.0 / std::sqrt(mesh->area(t));
        for (std::size_t j = 0; j < kEigenpairs; ++j)
          coefficients(t, j) = eigen.vectors(t, j) * inv_root;
      }
      linalg::Vector values(eigen.values.begin(),
                            eigen.values.begin() + kEigenpairs);
      stored = std::make_unique<store::StoredKleResult>(
          config, mesh, std::move(values), std::move(coefficients));
    });
    const fs::path path = solver_store->path_for(config);
    layers.time("store.publish", [&] {
      const std::string tmp = path.string() + ".tmp";
      store::write_kle_file(tmp, *stored);
      fs::rename(tmp, path);
      store::fsync_directory(root.string());
    });
    std::unique_ptr<store::StoredKleResult> loaded;
    layers.time("store.load", [&] {
      loaded = std::make_unique<store::StoredKleResult>(
          store::read_kle_file(path.string()));
    });
    timed_ms = seconds_since(start) * 1e3;
    layers.end_op();

    triangles.push_back(static_cast<double>(n));
    iterations.push_back(static_cast<double>(info.iterations));
    artifact_mb.push_back(static_cast<double>(fs::file_size(path)) /
                          (1024.0 * 1024.0));
    bool ok = true;
    if (!info.converged) {
      report.fail_check("kle_build: traced Lanczos did not converge");
      ok = false;
    }
    if (!core::check_kle_health(stored->kle(), b).ok()) {
      report.fail_check("kle_build: traced KLE health check failed");
      ok = false;
    }
    if (!same_artifact(*stored, *loaded)) {
      report.fail_check("kle_build: traced disk load differs");
      ok = false;
    }
    fs::remove(path);
    return ok;
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
    report.set("mesh.refine_ms", layers.p50_ms("mesh"), "ms");
    report.set("mesh.triangles", median(triangles), "count");
    report.set("core.assemble_ms", layers.p50_ms("core.assemble"), "ms");
    const double n = median(triangles);
    report.set("core.galerkin_mb", 8.0 * n * n / (1024.0 * 1024.0), "MiB");
    report.set("linalg.lanczos_ms", layers.p50_ms("linalg.lanczos"), "ms");
    report.set("linalg.lanczos_iterations", median(iterations), "count");
    report.set("store.publish_ms", layers.p50_ms("store.publish"), "ms");
    report.set("store.disk_load_ms", layers.p50_ms("store.load"), "ms");
    report.set("store.artifact_mb", median(artifact_mb), "MiB");
    report_trace_overhead(untraced, traced, layers, report);
  }
  report.context["kernel_c"] = std::to_string(kernel_c);
  return report;
}

}  // namespace perfbench
