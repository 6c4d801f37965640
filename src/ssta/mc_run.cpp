#include "ssta/mc_run.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "store/file_lock.h"
#include "store/record_log.h"

namespace sckl::ssta {
namespace {

/// Opens the run's ledger and replays it into `leases`: a fresh ledger gets
/// its header record; an existing one must carry exactly `header`, and
/// each lease record marks its lease complete (first record per lease wins
/// — later duplicates are identical bits from a slow pre-crash claimer).
store::RecordLog open_ledger(const McRunOptions& run,
                             const LedgerHeader& header,
                             std::vector<Lease>& leases, McRunStats& stats) {
  store::RecordLog log =
      store::RecordLog::open(run.ledger_dir / (run.run_id + ".ledger"));
  log.set_crash_site(robust::FaultSite::kMcLedgerWrite);
  stats.recovered_torn_tail = log.recovered_torn_tail();
  const auto& records = log.records();
  if (records.empty()) {
    std::vector<std::uint8_t> payload;
    header.encode(payload);
    log.append(payload);
    ++stats.ledger_appends;
    obs::counter("sckl.ssta.mc.ledger_appends").add(1);
    return log;
  }
  // ByteReader raises kCorruptArtifact on any truncated field — a CRC'd
  // record that fails to decode is a writer bug, not a torn write.
  wire::ByteReader first(records[0].data(), records[0].size(),
                         ErrorCode::kCorruptArtifact, "mc run ledger");
  if (first.u8() != kLedgerHeaderTag)
    throw Error("checkpointed mc: ledger does not start with a header",
                ErrorCode::kCorruptArtifact);
  if (!(LedgerHeader::decode(first) == header))
    throw Error(
        "checkpointed mc: ledger '" + run.run_id +
            "' was written for a different workload or sampling "
            "geometry (workload_key / num_samples / block_size / "
            "lease_blocks / seed / sketch_capacity must all match)",
        ErrorCode::kPrecondition);
  for (std::size_t i = 1; i < records.size(); ++i) {
    wire::ByteReader r(records[i].data(), records[i].size(),
                       ErrorCode::kCorruptArtifact, "mc run ledger");
    if (r.u8() != kLedgerLeaseTag)
      throw Error("checkpointed mc: unexpected ledger record tag",
                  ErrorCode::kCorruptArtifact);
    const std::uint64_t first_block = r.u64();
    const std::uint64_t lease_blocks = r.u64();
    if (first_block % run.lease_blocks != 0 ||
        first_block / run.lease_blocks >= leases.size())
      throw Error("checkpointed mc: lease record outside the run",
                  ErrorCode::kCorruptArtifact);
    Lease& lease = leases[first_block / run.lease_blocks];
    if (lease_blocks != lease.num_blocks)
      throw Error("checkpointed mc: lease record geometry mismatch",
                  ErrorCode::kCorruptArtifact);
    if (lease.state == LeaseState::kComplete) continue;  // dedup
    lease.partial = detail::BlockPartial::decode(r);
    lease.state = LeaseState::kComplete;
  }
  std::size_t complete = 0;
  for (const Lease& lease : leases)
    if (lease.state == LeaseState::kComplete) ++complete;
  if (!run.resume && complete > 0)
    throw Error("checkpointed mc: ledger for run '" + run.run_id +
                    "' already holds " + std::to_string(complete) +
                    " completed lease(s); pass resume to continue it",
                ErrorCode::kPrecondition);
  stats.leases_resumed = complete;
  if (complete > 0)
    obs::counter("sckl.ssta.mc.leases_resumed").add(
        static_cast<std::uint64_t>(complete));
  return log;
}

/// Calls share_coordinator(nullptr, nullptr) on scope exit, including the
/// exception paths — the serve registry must drop its pointer before the
/// coordinator object on our stack is destroyed.
class ShareGuard {
 public:
  explicit ShareGuard(
      const std::function<void(LeaseCoordinator*, const LedgerHeader*)>& hook)
      : hook_(hook) {}
  ShareGuard(const ShareGuard&) = delete;
  ShareGuard& operator=(const ShareGuard&) = delete;
  ~ShareGuard() { hook_(nullptr, nullptr); }

 private:
  const std::function<void(LeaseCoordinator*, const LedgerHeader*)>& hook_;
};

/// The one Monte Carlo runner. A run with an empty ledger_dir keeps its
/// lease table in memory only; otherwise the table is replayed from and
/// committed to the run ledger.
McSstaResult run_leases(const timing::StaEngine& engine,
                        const ParameterSamplers& samplers,
                        const McSstaOptions& options, const McRunOptions& run,
                        McRunStats* stats_out) {
  const bool durable = !run.ledger_dir.empty();
  require(options.num_samples > 0, "monte carlo: no samples");
  require(options.block_size > 0, "monte carlo: empty block");
  require(run.lease_blocks > 0, "monte carlo: lease_blocks must be > 0");
  require(run.lease_ttl_ms > 0, "monte carlo: lease_ttl_ms must be > 0");
  require(!(durable && options.keep_samples),
          "checkpointed mc: keep_samples is not supported (resumed leases "
          "do not retain per-sample delays)");
  const std::size_t num_gates = engine.netlist().num_physical_gates();
  for (const auto* sampler : samplers) {
    require(sampler != nullptr, "monte carlo: missing sampler");
    require(sampler->num_locations() == num_gates,
            "monte carlo: sampler/netlist gate count mismatch");
  }

  obs::Span mc_span("ssta.mc");
  obs::counter("sckl.ssta.mc.runs").add(1);
  obs::Stopwatch total;

  const std::size_t num_blocks = detail::num_blocks_for(options);
  const std::size_t num_leases =
      (num_blocks + run.lease_blocks - 1) / run.lease_blocks;
  const std::size_t num_endpoints = engine.num_endpoints();
  McRunStats stats;
  stats.leases_total = num_leases;
  const LedgerHeader header{run.workload_key, options.num_samples,
                            options.block_size, run.lease_blocks, options.seed,
                            options.sketch_capacity, num_endpoints};
  std::vector<Lease> leases(num_leases);
  for (std::size_t l = 0; l < num_leases; ++l) {
    leases[l].first_block = l * run.lease_blocks;
    leases[l].num_blocks =
        std::min(run.lease_blocks, num_blocks - leases[l].first_block);
  }

  // Single-writer discipline: the exclusive lock is held for the whole run.
  std::optional<store::FileLock> lock;
  std::optional<store::RecordLog> log;
  if (durable) {
    obs::counter("sckl.ssta.mc.checkpointed_runs").add(1);
    std::filesystem::create_directories(run.ledger_dir);
    lock = store::FileLock::try_acquire(run.ledger_dir / (run.run_id + ".lock"),
                                        store::FileLock::Mode::kExclusive);
    if (!lock.has_value())
      throw Error("checkpointed mc: run '" + run.run_id +
                      "' is locked by another live process",
                  ErrorCode::kOverloaded);
    log = open_ledger(run, header, leases, stats);
  }

  const std::size_t remaining = num_leases - stats.leases_resumed;
  const bool distributed = static_cast<bool>(run.share_coordinator);
  const std::size_t num_threads =
      distributed ? 1
                  : std::max<std::size_t>(
                        1, std::min(ThreadPool::resolve_num_threads(
                                        options.num_threads),
                                    remaining));
  LeaseCoordinator coordinator(
      std::move(leases), std::move(log),
      static_cast<double>(run.lease_ttl_ms) / 1000.0, num_endpoints, stats);
  std::vector<double> samples;
  if (options.keep_samples) samples.assign(options.num_samples, 0.0);

  // The one claim loop. Local workers leave once nothing is claimable; a
  // distributed coordinator instead waits for remote progress and claims a
  // lease itself only after local_fallback_seconds of silence, so the run
  // finishes even if every worker vanishes. Pool workers run on their own
  // threads, so each worker span is parented under `mc_span` explicitly.
  const std::uint64_t mc_span_id = obs::Span::current_id();
  static obs::Histogram& steal_ns = obs::histogram("sckl.ssta.mc.steal_ns");
  static obs::Histogram& busy_us = obs::histogram("sckl.ssta.mc.worker_busy_us");
  std::atomic<bool> was_cancelled{false};
  const auto worker = [&](std::size_t /*worker_index*/) {
    obs::Span worker_span("ssta.mc.worker", mc_span_id);
    obs::Stopwatch busy;
    detail::BlockScratch scratch;
    std::uint64_t seen = coordinator.activity_count();
    while (!(distributed && coordinator.all_complete())) {
      // Polled once per claim: a claimed lease always completes first.
      if (options.cancelled && options.cancelled()) {
        was_cancelled.store(true, std::memory_order_relaxed);
        break;
      }
      if (distributed && coordinator.wait_for_remote_activity(
                             seen, run.local_fallback_seconds))
        continue;
      obs::Stopwatch steal;
      const std::size_t l = coordinator.claim();
      if (obs::trace_enabled()) steal_ns.record(steal.seconds() * 1e9);
      if (l == LeaseCoordinator::npos) {
        if (distributed) continue;  // all claimed and live: keep waiting
        break;
      }
      const Lease& lease = coordinator.leases()[l];
      coordinator.publish(
          l,
          *detail::compute_lease_partial(
              engine, samplers, options, lease.first_block, lease.num_blocks,
              num_endpoints, scratch,
              options.keep_samples ? &samples : nullptr),
          mc_span_id);
      if (distributed)
        obs::counter("sckl.ssta.mc.remote.local_fallback").add(1);
    }
    if (obs::trace_enabled()) busy_us.record(busy.seconds() * 1e6);
  };

  if (remaining > 0) {
    std::optional<ShareGuard> unshare;
    if (distributed) {
      run.share_coordinator(&coordinator, &header);
      unshare.emplace(run.share_coordinator);
    }
    if (num_threads == 1) {
      worker(0);
    } else {
      ThreadPool pool(num_threads);
      pool.run(worker);
    }
  }  // `unshare` stops remote traffic before the final fold reads the table
  if (was_cancelled.load(std::memory_order_relaxed))
    throw Error(std::string("monte carlo: cancelled before completion") +
                    (durable ? " (completed leases are durable; resume to "
                               "continue)"
                             : ""),
                ErrorCode::kDeadlineExceeded);
  for (const Lease& lease : coordinator.leases())
    ensure(lease.state == LeaseState::kComplete,
           "monte carlo: worker pool exited with an incomplete lease");

  // The one final fold, in lease order (invariant #3): ledger-loaded,
  // locally computed, and remotely published lease partials are bitwise
  // interchangeable here. With one block per lease every lease partial is
  // an exact copy of its block partial (a merge into an empty accumulator
  // copies), so this is the block-order fold of a plain run.
  detail::BlockPartial folded;
  folded.worst_delay_sketch = QuantileSketch(options.sketch_capacity);
  folded.endpoint.resize(num_endpoints);
  for (const Lease& lease : coordinator.leases()) folded.merge(lease.partial);

  McSstaResult result;
  result.worst_delay = folded.worst_delay;
  result.worst_delay_sketch = std::move(folded.worst_delay_sketch);
  result.endpoint = std::move(folded.endpoint);
  result.worst_delay_samples = std::move(samples);
  result.sampling_seconds = folded.sampling_seconds;
  result.sta_seconds = folded.sta_seconds;
  result.total_seconds = total.seconds();
  result.threads_used = num_threads;
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace

McSstaResult run_monte_carlo_ssta(const timing::StaEngine& engine,
                                  const ParameterSamplers& samplers,
                                  const McSstaOptions& options) {
  McRunOptions run;
  run.lease_blocks = 1;
  return run_leases(engine, samplers, options, run, nullptr);
}

McSstaResult run_checkpointed_monte_carlo_ssta(
    const timing::StaEngine& engine, const ParameterSamplers& samplers,
    const McSstaOptions& options, const McRunOptions& run,
    McRunStats* stats_out) {
  require(valid_run_id(run.run_id),
          "checkpointed mc: run_id must be non-empty [A-Za-z0-9._-]");
  require(!run.ledger_dir.empty(), "checkpointed mc: ledger_dir is required");
  return run_leases(engine, samplers, options, run, stats_out);
}

}  // namespace sckl::ssta
