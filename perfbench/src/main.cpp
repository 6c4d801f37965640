// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload <kle_build|mc_ssta|serve_mix|kle_matfree>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             --refdir <dir> [--max-ops <k>] [--rate <req/s>]
//
// It prints a context line (machine, sizes, percentile choices) and then,
// as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. A failed output check makes the exit code nonzero.
// perfbench/run.py builds this binary from source and is the documented
// entry point; see perfbench/README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <span>
#include <string>

#include "common.h"
#include "linalg/gemm.h"

namespace {

using namespace perfbench;

/// Every per-layer metric, with its unit. A traced record always carries the
/// full list; a layer the workload never calls reads 0, which is the
/// prediction for a workload that bypasses it.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"mesh.refine_ms", "ms"},
    {"mesh.triangles", "count"},
    {"core.assemble_ms", "ms"},
    {"core.galerkin_mb", "MiB"},
    {"linalg.lanczos_ms", "ms"},
    {"linalg.lanczos_iterations", "count"},
    {"linalg.hmat_build_ms", "ms"},
    {"linalg.hmat_lanczos_ms", "ms"},
    {"linalg.hmat_compressed_mb", "MiB"},
    {"linalg.hmat_mean_rank", "rank"},
    {"linalg.lambda_rel_err", "ratio"},
    {"store.publish_ms", "ms"},
    {"store.disk_load_ms", "ms"},
    {"store.artifact_mb", "MiB"},
    {"store.cache_hit_ratio", "ratio"},
    {"field.latent_us_per_sample", "us"},
    {"field.reconstruct_us_per_sample", "us"},
    {"field.reconstruct_gflops", "GFLOP/s"},
    {"field.bytes_per_sample", "B"},
    {"field.sampler_build_ms", "ms"},
    {"timing.sta_us_per_sample", "us"},
    {"ssta.busy_share", "ratio"},
    {"ssta.speedup_vs_1t", "x"},
    {"ssta.checkpoint_ratio", "x"},
    {"ssta.ledger_appends", "count"},
    {"serve.sample_block_p50_ms", "ms"},
    {"serve.run_ssta_p50_ms", "ms"},
    {"serve.run_ssta_wait_ms", "ms"},
    {"serve.rejected", "count"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.layer_coverage_pct", "%"},
    {"machine.probe_ms", "ms"},
};

/// Every end-to-end metric, with its unit.
const std::pair<const char*, const char*> kEndToEndMetrics[] = {
    {"setup_s", "s"},        {"op_p50_ms", "ms"},     {"op_tail_ms", "ms"},
    {"rate_per_s", "1/s"},   {"peak_rss_mb", "MiB"},  {"ok_ratio", "ratio"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <kle_build|mc_ssta|serve_mix|"
               "kle_matfree> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> --refdir <dir> [--max-ops <k>] [--rate <req/s>]\n"
               "       perfbench --write-reference <file>  (kle_matfree "
               "reference eigenvalues)\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string workdir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--workdir") workdir = value;
    else if (key == "--max-ops") args.max_ops = std::stoul(value);
    else if (key == "--refdir") args.refdir = value;
    else if (key == "--rate") args.rate = std::stod(value);
    else if (key == "--write-reference") {
      try {
        write_matfree_reference(value);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
      }
      return 0;
    } else {
      usage();
      return 2;
    }
  }
  if (args.workload.empty() || workdir.empty() || args.seconds <= 0.0) {
    usage();
    return 2;
  }

  // Pin every "auto" thread count in the program before anything reads it.
  const std::size_t threads = pinned_threads();
  setenv("SCKL_THREADS", std::to_string(threads).c_str(), 1);
  std::filesystem::create_directories(workdir);
  // Short relative paths from here on (unix socket paths are length-capped).
  if (chdir(workdir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter %s\n", workdir.c_str());
    return 2;
  }

  Report report;
  try {
    if (args.workload == "kle_build") report = run_kle_build(args);
    else if (args.workload == "mc_ssta") report = run_mc_ssta(args);
    else if (args.workload == "serve_mix") report = run_serve_mix(args);
    else if (args.workload == "kle_matfree") report = run_kle_matfree(args);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  report.context["workload"] = args.workload;
  report.context["seed"] = std::to_string(args.seed);
  report.context["nproc"] = std::to_string(hardware_threads());
  report.context["pinned_threads"] = std::to_string(threads);
  report.context["simd"] =
      sckl::linalg::simd_target_name(sckl::linalg::active_simd_target());
  report.context["store_fs"] = filesystem_type(".");

  std::string context = "{";
  for (const auto& [key, value] : report.context) {
    if (context.size() > 1) context += ", ";
    context += "\"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  std::printf("%s}\n", context.c_str());

  std::string metrics;
  const std::span<const std::pair<const char*, const char*>> names =
      args.trace ? std::span<const std::pair<const char*, const char*>>(
                       kLayerMetrics)
                 : std::span<const std::pair<const char*, const char*>>(
                       kEndToEndMetrics);
  for (const auto& [name, unit] : names) {
    const auto it = report.metrics.find(name);
    double value = it == report.metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
