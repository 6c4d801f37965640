// mc_ssta: the online half of the paper — Monte Carlo SSTA samples/s.
//
// Set-up builds the s9234 pipeline (5,597 gates: synthesis, placement, cell
// library, STA engine), one paper-mesh KLE (0.1% max area, mesher seed 8,
// n = 2,447, m = 50) and a
// KleFieldSampler at r = 25. Each op is one plain run_monte_carlo_ssta of
// 2,048 samples in 256-sample blocks on the pinned thread count, i.e.
// several blocks per worker.
//
// Checks: ops come in pairs on one MC seed, and the second op of a pair
// must reproduce the first bit for bit. The traced run additionally repeats
// one op on a single thread and requires the identical result.
//
// Traced ops run the same call with every FieldSampler stage wrapped in a
// timer, so field time is measured here, not reported by the program.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>

#include "circuit/synthetic.h"
#include "common.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "placer/recursive_placer.h"
#include "ssta/mc_ssta.h"
#include "timing/cell_library.h"
#include "timing/sta.h"

namespace perfbench {
namespace {

using namespace sckl;

constexpr const char* kCircuit = "s9234";
constexpr std::size_t kSamples = 2048;
constexpr std::size_t kBlock = 256;
constexpr std::size_t kTruncation = 25;

/// Everything the ops read; rebuilt from scratch by each cold set-up.
struct Pipeline {
  std::unique_ptr<circuit::Netlist> netlist;
  std::unique_ptr<placer::Placement> placement;
  std::unique_ptr<timing::CellLibrary> library;
  std::unique_ptr<timing::StaEngine> engine;
  std::vector<geometry::Point2> locations;
  std::unique_ptr<kernels::GaussianKernel> kernel;
  std::unique_ptr<mesh::TriMesh> mesh;
  std::unique_ptr<field::KleFieldSampler> sampler;
  double mesh_ms = 0.0;
  double sampler_ms = 0.0;
};

/// The workload seed only picks MC seeds: circuit, placement and mesh are
/// fixed, so every seed times the same work.
Pipeline build_pipeline() {
  Pipeline p;
  p.netlist = std::make_unique<circuit::Netlist>(
      circuit::make_paper_circuit(kCircuit, 1));
  placer::PlacerOptions placer_options;
  placer_options.seed = 18;
  p.placement = std::make_unique<placer::Placement>(placer::place(
      *p.netlist, geometry::BoundingBox::unit_die(), placer_options));
  p.library = std::make_unique<timing::CellLibrary>(
      timing::CellLibrary::default_90nm());
  p.engine = std::make_unique<timing::StaEngine>(*p.netlist, *p.placement,
                                                 *p.library);
  p.locations = p.placement->physical_locations(*p.netlist);
  p.kernel =
      std::make_unique<kernels::GaussianKernel>(kernels::paper_gaussian_c());
  Clock::time_point start = Clock::now();
  p.mesh = std::make_unique<mesh::TriMesh>(mesh::paper_mesh(
      geometry::BoundingBox::unit_die(), 0.001, 8));
  p.mesh_ms = seconds_since(start) * 1e3;
  core::KleOptions options;
  options.num_eigenpairs = 50;
  const core::KleResult kle = core::solve_kle(*p.mesh, *p.kernel, options);
  start = Clock::now();
  p.sampler =
      std::make_unique<field::KleFieldSampler>(kle, kTruncation, p.locations);
  p.sampler_ms = seconds_since(start) * 1e3;
  return p;
}

/// Forwards both sampler stages to the real sampler, timing each call.
/// Safe for the concurrent const use the MC workers make of it.
class TimedSampler final : public field::FieldSampler {
 public:
  explicit TimedSampler(const field::FieldSampler& inner) : inner_(inner) {}
  std::size_t num_locations() const override { return inner_.num_locations(); }
  std::size_t latent_dimension() const override {
    return inner_.latent_dimension();
  }
  void latent_block(const field::SampleRange& range, const StreamKey& key,
                    linalg::Matrix& xi) const override {
    const Clock::time_point start = Clock::now();
    inner_.latent_block(range, key, xi);
    latent_ns_ += elapsed_ns(start);
  }
  void reconstruct(const linalg::Matrix& xi,
                   linalg::Matrix& out) const override {
    const Clock::time_point start = Clock::now();
    inner_.reconstruct(xi, out);
    reconstruct_ns_ += elapsed_ns(start);
  }
  double latent_s() const { return latent_ns_.load() * 1e-9; }
  double reconstruct_s() const { return reconstruct_ns_.load() * 1e-9; }
  void reset() {
    latent_ns_ = 0;
    reconstruct_ns_ = 0;
  }

 private:
  static std::int64_t elapsed_ns(Clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  }
  const field::FieldSampler& inner_;
  mutable std::atomic<std::int64_t> latent_ns_{0};
  mutable std::atomic<std::int64_t> reconstruct_ns_{0};
};

bool same_result(const ssta::McSstaResult& a, const ssta::McSstaResult& b) {
  if (!a.worst_delay.state_equals(b.worst_delay) ||
      !a.worst_delay_sketch.state_equals(b.worst_delay_sketch) ||
      a.endpoint.size() != b.endpoint.size())
    return false;
  for (std::size_t e = 0; e < a.endpoint.size(); ++e)
    if (!a.endpoint[e].state_equals(b.endpoint[e])) return false;
  return true;
}

/// Times StaEngine::run directly over one block of field samples.
double sta_us_per_sample(const Pipeline& p, const Args& args) {
  std::array<linalg::Matrix, timing::kNumStatParameters> blocks;
  for (std::size_t j = 0; j < blocks.size(); ++j)
    p.sampler->sample_block({0, kBlock}, StreamKey{args.seed, j}, blocks[j]);
  std::vector<double> us;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const Clock::time_point start = Clock::now();
    double sink = 0.0;
    for (std::size_t s = 0; s < kBlock; ++s) {
      timing::ParameterView view{};
      for (std::size_t j = 0; j < blocks.size(); ++j)
        view[j] = blocks[j].row_ptr(s);
      sink += p.engine->run(view).worst_delay;
    }
    us.push_back(seconds_since(start) * 1e6 / static_cast<double>(kBlock));
    if (!(sink > 0.0)) return 0.0;
  }
  return median(us);
}

}  // namespace

Report run_mc_ssta(const Args& args) {
  Report report;
  const std::size_t threads = pinned_threads();

  Pipeline pipeline;
  const double setup_s = median_setup_seconds(3, [&] {
    pipeline = Pipeline{};
    pipeline = build_pipeline();
  });
  const field::FieldSampler& sampler = *pipeline.sampler;
  const ssta::ParameterSamplers plain{&sampler, &sampler, &sampler, &sampler};
  TimedSampler timed(sampler);
  const ssta::ParameterSamplers wrapped{&timed, &timed, &timed, &timed};

  const auto options_for = [&](std::size_t pair, std::size_t num_threads) {
    ssta::McSstaOptions options;
    options.num_samples = kSamples;
    options.block_size = kBlock;
    options.seed = mix(args.seed, 1 + pair);
    options.num_threads = num_threads;
    return options;
  };

  LayerClock layers;
  std::vector<double> busy_share;
  std::vector<double> latent_us;
  std::vector<double> reconstruct_us;
  ssta::McSstaResult first_of_pair;
  ssta::McSstaResult first_traced;

  const auto op = [&](std::size_t i, bool trace, double& timed_ms) {
    const ssta::McSstaOptions options = options_for(i / 2, threads);
    timed.reset();
    const Clock::time_point start = Clock::now();
    ssta::McSstaResult result = ssta::run_monte_carlo_ssta(
        *pipeline.engine, trace ? wrapped : plain, options);
    const double wall = seconds_since(start);
    timed_ms = wall * 1e3;

    bool ok = result.worst_delay.count() == kSamples;
    if (i % 2 == 0) {
      // Pairs are interleaved with traced ops in a traced run; traced and
      // untraced ops of one index share the seed, so both are compared.
      if (!trace) first_of_pair = result;
      else first_traced = result;
    } else if (!same_result(result, trace ? first_traced : first_of_pair)) {
      report.fail_check("mc_ssta: repeated MC seed changed the result");
      ok = false;
    }
    if (trace) {
      const double t = static_cast<double>(threads);
      const double field_s = timed.latent_s() + timed.reconstruct_s();
      layers.add("field", field_s / t);
      layers.add("timing", result.sta_seconds / t);
      layers.add("ssta", std::max(0.0, wall - (field_s + result.sta_seconds) / t));
      layers.end_op();
      busy_share.push_back((result.sampling_seconds + result.sta_seconds) /
                           (wall * t));
      const double field_samples =
          static_cast<double>(kSamples * timing::kNumStatParameters);
      latent_us.push_back(timed.latent_s() * 1e6 / field_samples);
      reconstruct_us.push_back(timed.reconstruct_s() * 1e6 / field_samples);
    }
    return ok;
  };

  const auto [untraced, traced] = run_ops_maybe_traced(args, 4, op);

  if (!args.trace) {
    report_end_to_end(untraced, 0.90, report);
    report_setup(setup_s, report);
    double busy_s = 0.0;
    for (const double ms : untraced.op_ms) busy_s += ms / 1e3;
    report_rate(static_cast<double>((untraced.attempted - untraced.failed) *
                                    kSamples),
                busy_s, report);
  } else {
    report.attempted = untraced.attempted;
    report.failed = untraced.failed;
    // The same op on one thread: the scaling the pinned count buys, and
    // the thread-count invariance of the statistics.
    const Clock::time_point start = Clock::now();
    const ssta::McSstaResult serial = ssta::run_monte_carlo_ssta(
        *pipeline.engine, plain, options_for(0, 1));
    const double serial_ms = seconds_since(start) * 1e3;
    const ssta::McSstaResult pinned = ssta::run_monte_carlo_ssta(
        *pipeline.engine, plain, options_for(0, threads));
    if (!same_result(serial, pinned))
      report.fail_check("mc_ssta: 1-thread result differs from pinned");
    report.set("ssta.speedup_vs_1t", serial_ms / median(untraced.op_ms), "x");
    report.set("ssta.busy_share", median(busy_share), "ratio");
    report.set("mesh.refine_ms", pipeline.mesh_ms, "ms");
    report.set("mesh.triangles",
               static_cast<double>(pipeline.mesh->num_triangles()), "count");
    const double gates = static_cast<double>(sampler.num_locations());
    const double r = static_cast<double>(sampler.latent_dimension());
    const double rec_us = median(reconstruct_us);
    report.set("field.latent_us_per_sample", median(latent_us), "us");
    report.set("field.reconstruct_us_per_sample", rec_us, "us");
    report.set("field.reconstruct_gflops",
               rec_us > 0.0 ? 2.0 * gates * r / (rec_us * 1e3) : 0.0,
               "GFLOP/s");
    // Latent row in, field row out, plus the r x N_g operator once per
    // block.
    report.set("field.bytes_per_sample",
               8.0 * (r + gates) + 8.0 * r * gates / kBlock, "B");
    report.set("field.sampler_build_ms", pipeline.sampler_ms, "ms");
    report.set("timing.sta_us_per_sample", sta_us_per_sample(pipeline, args),
               "us");
    report_trace_overhead(untraced, traced, layers, report);
  }
  report.context["gates"] = std::to_string(sampler.num_locations());
  report.context["samples_per_op"] = std::to_string(kSamples);
  return report;
}

}  // namespace perfbench
