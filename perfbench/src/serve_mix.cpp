// serve_mix: the daemon as remote callers see it — time-to-answer.
//
// An in-process serve::Server on a unix socket is driven open loop at a
// fixed offered rate, well below its measured capacity (see README.md).
// Requests are scheduled on a fixed clock with seeded jitter and each one
// is timed from its scheduled send time, so a stall also charges the
// requests queued behind it. Client connections plus server workers stay
// within the pinned thread count.
//
// Mix (the seed draws the jitter, ranges, streams and locations; request
// types sit at fixed positions):
//   ~90% SampleBlock on a warm artifact (64 rows x 256 locations, r = 25):
//        the read path — frame/wire, queue, batching, sampler cache, GEMM.
//   10% RunSsta on c880 (256 samples, 1 thread) with a fresh run_id: the
//        write path — the checkpointed runner and its fsync'd ledger.
// A refused request, an error reply, or a reply later than the latency
// limit counts as failed.
//
// Checks, after the load window: every SampleBlock reply is bit-identical
// to a local sample_block of the same range and stream; every RunSsta
// mean/sigma is bit-identical to a local checkpointed run of the config.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "common/error.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "ssta/experiment.h"
#include "store/artifact_store.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace sckl;

/// Offered load, requests/s. Capacity of this mix on the reference
/// machine is recorded in README.md; the rate stays far below it so the
/// tail measures service, not a growing backlog.
constexpr double kRate = 100.0;
constexpr std::uint32_t kLatencyLimitMs = 250;
constexpr std::size_t kRows = 64;
constexpr std::size_t kLocations = 256;
constexpr std::uint64_t kTruncation = 25;
constexpr std::uint64_t kSstaSamples = 256;
constexpr const char* kSstaCircuit = "c880";
constexpr const char* kSocket = "serve.sock";
constexpr const char* kStoreRoot = "serve_store";

/// One planned request.
struct Planned {
  double at_s = 0.0;  // scheduled send time after the window opens
  bool ssta = false;
  field::SampleRange range;
  StreamKey stream;
};

/// What happened to one request.
struct Outcome {
  bool done = false;        // a success reply arrived
  bool ok = false;          // ... and within the latency limit
  double latency_ms = 0.0;  // from the scheduled send time
  double call_ms = 0.0;     // inside Client (wire + queue + execution)
  double lag_ms = 0.0;      // how late the sender issued it
  std::uint64_t hash = 0;   // SampleBlock reply bits
  serve::RunSstaReply ssta;
};

/// The workload's inputs. The seed picks sample locations here and the
/// request schedule, ranges and streams in make_plan(); the RunSsta config
/// (circuit and mesh) is fixed so every seed times the same work.
struct Inputs {
  std::uint64_t config_seed = 1;  // ExperimentConfig seed of RunSsta
  store::KleArtifactConfig artifact;
  std::vector<geometry::Point2> locations;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  // The artifact RunSsta's pipeline fetches (paper mesh at the default
  // area, mesher seed = config seed + 7, m = max(2r, 50)), so one solve
  // warms both request types.
  in.artifact.kernel_id = "gaussian";
  in.artifact.kernel_params = {kernels::paper_gaussian_c()};
  in.artifact.mesh.kind = store::MeshSpec::Kind::kPaperRefined;
  in.artifact.mesh.area_fraction = 0.001;
  in.artifact.mesh.mesher_seed = in.config_seed + 7;
  in.artifact.quadrature = core::QuadratureRule::kCentroid1;
  in.artifact.num_eigenpairs = 50;
  for (std::size_t i = 0; i < kLocations; ++i) {
    const std::uint64_t h = mix(seed, 1'000 + i);
    in.locations.push_back({static_cast<double>(h & 0xffffff) / 16777216.0,
                            static_cast<double>((h >> 24) & 0xffffff) /
                                16777216.0});
  }
  return in;
}

serve::RunSstaRequest ssta_request(const Inputs& in, const std::string& run_id) {
  serve::RunSstaRequest request;
  request.circuit = kSstaCircuit;
  request.num_samples = kSstaSamples;
  request.r = kTruncation;
  request.seed = in.config_seed;
  request.num_threads = 1;
  request.run_id = run_id;
  return request;
}

serve::SampleBlockRequest sample_request(const Inputs& in,
                                         const Planned& plan) {
  serve::SampleBlockRequest request;
  request.config = in.artifact;
  request.r = kTruncation;
  request.locations = in.locations;
  request.range = plan.range;
  request.stream = plan.stream;
  return request;
}

/// The local twin of a server-side RunSsta config.
ssta::ExperimentConfig local_config(const Inputs& in) {
  ssta::ExperimentConfig config;
  config.circuit = kSstaCircuit;
  config.num_samples = kSstaSamples;
  config.r = kTruncation;
  config.seed = in.config_seed;
  config.num_threads = 1;
  config.store_root = kStoreRoot;
  return config;
}

std::vector<Planned> make_plan(std::uint64_t seed, double seconds,
                               double rate) {
  std::vector<Planned> plan;
  const std::size_t total = static_cast<std::size_t>(seconds * rate);
  for (std::size_t i = 0; i < total; ++i) {
    const std::uint64_t h = mix(seed, 1'000'000 + i);
    Planned p;
    const double jitter = static_cast<double>(h >> 40) / 16777216.0;  // [0,1)
    p.at_s = (static_cast<double>(i) + 0.5 * jitter) / rate;
    // Every tenth request of each connection is a RunSsta, at fixed
    // positions, so no seed stacks two RunSstas on one connection.
    p.ssta = i % 20 == 0 || i % 20 == 11;
    p.range = {mix(h, 1) % 1'000'000'000, kRows};
    p.stream = {mix(h, 2) % 1'000'000, h % 4};
    plan.push_back(p);
  }
  return plan;
}

/// Reads `"key": <number>` following `section` in the Stats document.
double stats_value(const std::string& json, const std::string& section,
                   const std::string& key) {
  std::size_t at = json.find("\"" + section + "\"");
  if (at == std::string::npos) return 0.0;
  at = json.find("\"" + key + "\"", at);
  if (at == std::string::npos) return 0.0;
  at = json.find(':', at);
  return std::strtod(json.c_str() + at + 1, nullptr);
}

struct StatsSnapshot {
  double rejected = 0.0;
  double store_hits = 0.0;
  double store_misses = 0.0;
};

StatsSnapshot read_stats() {
  serve::Client client = serve::Client::connect_unix(kSocket);
  const std::string json = client.stats().json;
  StatsSnapshot s;
  s.rejected = stats_value(json, "admission", "rejected_overloaded") +
               stats_value(json, "admission", "rejected_deadline");
  s.store_hits = stats_value(json, "store_cache", "hits");
  s.store_misses = stats_value(json, "store_cache", "misses");
  return s;
}

/// Server workers and client connections split the pinned thread count.
std::size_t server_workers() { return std::max<std::size_t>(1, pinned_threads() / 2); }
std::size_t connections() {
  return std::max<std::size_t>(1, pinned_threads() - server_workers());
}

std::unique_ptr<serve::Server> start_server() {
  serve::ServerOptions options;
  options.unix_path = kSocket;
  options.store_root = kStoreRoot;
  options.num_threads = server_workers();
  options.max_queue = 64;
  return std::make_unique<serve::Server>(options);
}

}  // namespace

Report run_serve_mix(const Args& args) {
  Report report;
  // A fixed mmap threshold turns off glibc's adaptive one, which rises to
  // the largest block freed so far; otherwise which request freed what
  // first decides how much heap the daemon keeps, and peak RSS followed
  // thread timing (22-26 MiB between seeds) rather than live memory.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const Inputs in = make_inputs(args.seed);
  std::unique_ptr<serve::Server> server;

  // Cold set-up: fresh store and daemon, the artifact solved, its sampler
  // cached and the RunSsta pipeline built by one warm request of each kind.
  std::size_t warm_runs = 0;
  const double setup_s = median_setup_seconds(3, [&] {
    server.reset();
    fs::remove_all(kStoreRoot);
    server = start_server();
    server->start();
    serve::Client client = serve::Client::connect_unix(kSocket);
    serve::SolveKleRequest solve;
    solve.config = in.artifact;
    client.solve_kle(solve);
    Planned warm;
    warm.range = {0, kRows};
    client.sample_block(sample_request(in, warm));
    client.run_ssta(ssta_request(in, "warm-" + std::to_string(warm_runs++)));
  });

  const double rate = args.rate > 0.0 ? args.rate : kRate;
  const std::vector<Planned> plan = make_plan(args.seed, args.seconds, rate);
  const std::size_t total =
      args.max_ops > 0 ? std::min(args.max_ops, plan.size()) : plan.size();
  std::vector<Outcome> outcomes(total);

  // The machine's speed before and after the load window; probes inside
  // it would share the cores with the daemon and read its load.
  for (int i = 0; i < 5; ++i) noise_probe_ms();
  reset_peak_rss();
  const StatsSnapshot before = read_stats();
  obs::Counter& ledger_appends = obs::counter("sckl.ssta.mc.ledger_appends");
  const std::uint64_t appends0 = ledger_appends.value();

  // Open loop: connection k sends requests k, k + connections, ... each at
  // its scheduled time (or as soon as its previous reply arrived, which the
  // latency then charges).
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  const std::size_t num_connections = connections();
  for (std::size_t k = 0; k < num_connections; ++k) {
    senders.emplace_back([&, k] {
      std::optional<serve::Client> connected;
      try {
        connected.emplace(serve::Client::connect_unix(kSocket));
      } catch (const Error& e) {
        // Every request of this connection stays not done: failed.
        std::fprintf(stderr, "perfbench: connect: %s\n", e.what());
        return;
      }
      serve::Client& client = *connected;
      client.set_deadline_ms(kLatencyLimitMs);
      for (std::size_t i = k; i < total; i += num_connections) {
        const Planned& p = plan[i];
        Outcome& out = outcomes[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(p.at_s));
        // Requests are built before they are sent and replies hashed
        // after the clock stops, so neither is charged to the latency.
        const serve::RunSstaRequest ssta =
            ssta_request(in, "run-" + std::to_string(i));
        const serve::SampleBlockRequest sample = sample_request(in, p);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        out.lag_ms = std::chrono::duration<double, std::milli>(sent - due).count();
        serve::SampleBlockReply reply;
        try {
          if (p.ssta) out.ssta = client.run_ssta(ssta);
          else reply = client.sample_block(sample);
          out.done = true;
        } catch (const Error& e) {
          std::fprintf(stderr, "perfbench: request %zu: %s\n", i, e.what());
        }
        const Clock::time_point end = Clock::now();
        if (out.done && !p.ssta)
          out.hash = hash_doubles(reply.values.data(), reply.values.size());
        out.call_ms = std::chrono::duration<double, std::milli>(end - sent).count();
        out.latency_ms =
            std::chrono::duration<double, std::milli>(end - due).count();
        out.ok = out.done && out.latency_ms <= kLatencyLimitMs;
      }
    });
  }
  for (std::thread& t : senders) t.join();
  const double window_s = seconds_since(t0);
  const double window_peak_rss_mb = peak_rss_mb();  // before verification
  const StatsSnapshot after = read_stats();
  const std::uint64_t appends = ledger_appends.value() - appends0;
  for (int i = 0; i < 5; ++i) noise_probe_ms();
  server->stop();

  // Local twins of both request types, through a store handle on the
  // daemon's root (the artifact loads from disk).
  store::KleArtifactStore local_store(kStoreRoot);
  const kernels::GaussianKernel kernel(in.artifact.kernel_params[0]);
  const store::FetchResult artifact =
      local_store.get_or_compute(in.artifact, kernel);
  Clock::time_point start = Clock::now();
  const field::KleFieldSampler sampler(*artifact.artifact, kTruncation,
                                       in.locations);
  const double sampler_build_ms = seconds_since(start) * 1e3;
  double latent_s = 0.0;
  double reconstruct_s = 0.0;
  std::size_t local_rows = 0;
  linalg::Matrix xi;
  linalg::Matrix block;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (plan[i].ssta || !outcomes[i].done) continue;
    start = Clock::now();
    sampler.latent_block(plan[i].range, plan[i].stream, xi);
    latent_s += seconds_since(start);
    start = Clock::now();
    sampler.reconstruct(xi, block);
    reconstruct_s += seconds_since(start);
    local_rows += block.rows();
    if (hash_doubles(block.data(), block.rows() * block.cols()) !=
        outcomes[i].hash)
      ++mismatched;
  }

  ssta::ExperimentPipeline pipeline(local_config(in));
  ssta::KleRunRequest run;
  run.r = kTruncation;
  run.num_eigenpairs = 50;
  run.store = &local_store;
  run.run_id = "local-check";
  const ssta::KleRunOutcome local = pipeline.run_kle(run);
  for (std::size_t i = 0; i < total; ++i) {
    if (!plan[i].ssta || !outcomes[i].done) continue;
    if (outcomes[i].ssta.mean != local.ssta.worst_delay.mean() ||
        outcomes[i].ssta.sigma != local.ssta.worst_delay.stddev())
      ++mismatched;
  }
  if (mismatched > 0)
    report.fail_check("serve_mix: " + std::to_string(mismatched) +
                      " replies differ from their local twins");

  OpLog all;
  OpLog even;  // untraced half of a traced run
  OpLog odd;   // traced half
  std::vector<double> sample_call;
  std::vector<double> ssta_call;
  std::vector<double> ssta_wait;
  std::vector<double> lag;
  std::vector<double> call;
  std::size_t ssta_done = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const Outcome& out = outcomes[i];
    ++all.attempted;
    if (!out.ok) ++all.failed;
    lag.push_back(out.lag_ms);
    if (!out.done) continue;
    all.op_ms.push_back(out.latency_ms);
    (i % 2 == 0 ? even : odd).op_ms.push_back(out.latency_ms);
    call.push_back(out.call_ms);
    if (plan[i].ssta) {
      ++ssta_done;
      ssta_call.push_back(out.call_ms);
      ssta_wait.push_back(out.call_ms -
                          1e3 * (out.ssta.setup_seconds + out.ssta.total_seconds));
    } else {
      sample_call.push_back(out.call_ms);
    }
  }

  if (!args.trace) {
    // p95 sits inside the RunSsta tenth of the requests. p99 (25 requests
    // beyond it) read host stalls instead: one 1.5 s stall of the machine
    // queued enough requests to move it from 28 to 80 ms.
    report_end_to_end(all, 0.95, report);
    report_setup(setup_s, report);
    report.set("peak_rss_mb", window_peak_rss_mb, "MiB");
    report.set("rate_per_s",
               static_cast<double>(all.attempted - all.failed) / window_s, "1/s");
  } else {
    report.attempted = all.attempted;
    report.failed = all.failed;
    report.set("serve.sample_block_p50_ms", median(sample_call), "ms");
    report.set("serve.run_ssta_p50_ms", median(ssta_call), "ms");
    report.set("serve.run_ssta_wait_ms", median(ssta_wait), "ms");
    report.set("serve.rejected", after.rejected - before.rejected, "count");
    const double hits = after.store_hits - before.store_hits;
    const double misses = after.store_misses - before.store_misses;
    report.set("store.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.set("ssta.ledger_appends",
               ssta_done > 0 ? static_cast<double>(appends) / ssta_done : 0.0,
               "count");
    report.set("bench.gen_lag_p99_ms", percentile(lag, 0.99), "ms");
    report.set("mesh.triangles",
               static_cast<double>(artifact.artifact->mesh().num_triangles()),
               "count");
    const double samples = static_cast<double>(std::max<std::size_t>(local_rows, 1));
    const double rec_us = reconstruct_s * 1e6 / samples;
    report.set("field.latent_us_per_sample", latent_s * 1e6 / samples, "us");
    report.set("field.reconstruct_us_per_sample", rec_us, "us");
    report.set("field.reconstruct_gflops",
               rec_us > 0.0 ? 2.0 * kLocations * kTruncation / (rec_us * 1e3)
                            : 0.0,
               "GFLOP/s");
    report.set("field.bytes_per_sample",
               8.0 * (kTruncation + kLocations) +
                   8.0 * kTruncation * kLocations / kRows,
               "B");
    report.set("field.sampler_build_ms", sampler_build_ms, "ms");

    // The write path's cost: checkpointed over plain wall for one c880 op.
    std::vector<double> plain_ms;
    std::vector<double> checkpointed_ms;
    for (int repeat = 0; repeat < 3; ++repeat) {
      ssta::KleRunRequest plain = run;
      plain.run_id.clear();
      start = Clock::now();
      pipeline.run_kle(plain);
      plain_ms.push_back(seconds_since(start) * 1e3);
      ssta::KleRunRequest checkpointed = run;
      checkpointed.run_id = "ratio-" + std::to_string(repeat);
      start = Clock::now();
      pipeline.run_kle(checkpointed);
      checkpointed_ms.push_back(seconds_since(start) * 1e3);
    }
    report.set("ssta.checkpoint_ratio",
               median(checkpointed_ms) / median(plain_ms), "x");

    // Request time inside the serve layer vs from the schedule; the two
    // halves of the run give the (zero-cost) tracing overhead.
    const double base = median(even.op_ms);
    report.set("bench.trace_overhead_pct",
               base > 0.0 ? 100.0 * (median(odd.op_ms) - base) / base : 0.0,
               "%");
    report.set("bench.layer_coverage_pct",
               100.0 * median(call) / median(all.op_ms), "%");
    report.set("machine.probe_ms", probe_median_ms(), "ms");
  }
  report.context["offered_rate_per_s"] = std::to_string(rate);
  report.context["latency_limit_ms"] = std::to_string(kLatencyLimitMs);
  report.context["connections"] = std::to_string(num_connections);
  report.context["server_workers"] = std::to_string(server_workers());
  report.context["run_ssta_requests"] = std::to_string(ssta_done);
  report.context["window_s"] = std::to_string(window_s);
  return report;
}

}  // namespace perfbench
