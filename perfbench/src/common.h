// Shared plumbing of the perfbench workloads: command-line arguments, the
// time-budgeted op loop, percentiles, the machine noise probe, and the
// result record that main() prints as the last line of standard output.
//
// Every workload follows one shape:
//   1. set up (repeated cold, median reported as setup_s),
//   2. run ops until the --seconds budget is spent, timing each op with
//      tracing off, checking each op's output,
//   3. with --trace 1, interleave traced ops whose layer calls are timed
//      from this benchmark's own code and report the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Parsed command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: cap the run at a handful of ops (self-test only).
  std::size_t max_ops = 0;
  /// Directory of the reference data kept with the benchmark.
  std::string refdir;
  /// serve_mix offered rate override in requests/s (0 = the fixed rate);
  /// used to measure the daemon's capacity, never by the benchmark runs.
  double rate = 0.0;
};

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64: derives independent 64-bit values from (seed, index) pairs so
/// every input of a workload is a pure function of the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index);

/// Linear-interpolated percentile of `values` (sorted copy), p in [0, 1].
double percentile(std::vector<double> values, double p);

/// Median of `values` (0 when empty).
inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// Probe time, in ms, of the reference machine speed that every reported
/// end-to-end time is scaled to (README.md, "Machine context and speed").
constexpr double kReferenceProbeMs = 10.0;

/// Fixed register-only integer loop, in milliseconds. Its duration depends
/// on nothing but how fast this core runs right now, so a run that landed
/// in a slow phase of a shared machine shows up here. Every reading is kept
/// for machine_speed_scale().
double noise_probe_ms();

/// Median of every probe reading of this process so far (0 before any).
double probe_median_ms();

/// kReferenceProbeMs over probe_median_ms(): a time measured in this run
/// times this factor is the time at the reference speed. The machine
/// drifts through speed phases lasting minutes, longer than a run, so one
/// factor per run follows them while a single slow probe moves it little.
double machine_speed_scale();

/// Resets the process's peak-RSS high-water mark to its current RSS, so
/// the peak reported afterwards belongs to the ops, not to the repeated
/// set-ups before them.
void reset_peak_rss();

/// Peak resident set size of this process in MiB since the last
/// reset_peak_rss() (the whole process lifetime if never reset).
double peak_rss_mb();

/// Number of hardware threads the process may use.
unsigned hardware_threads();

/// Filesystem type name of `path` ("ext4", "tmpfs", ...).
std::string filesystem_type(const std::string& path);

/// FNV-1a over the bit patterns of `count` doubles; equal hashes of equal
/// lengths are how replies are compared bit for bit after a run.
std::uint64_t hash_doubles(const double* values, std::size_t count);

/// One named metric of the printed record.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Free-form context (machine, sizes, percentile choice), printed as one
  /// JSON object line before the result line.
  std::map<std::string, std::string> context;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check: the run is then reported incorrect and
  /// the command exits nonzero.
  void fail_check(const std::string& what);
};

/// Timings of the ops of one run.
struct OpLog {
  std::vector<double> op_ms;     // wall time per completed op
  std::vector<double> setup_s;   // per-op cold set-up, when one is given
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One op: runs op `index`, stores the timed part of its wall time in
/// `timed_ms` (left negative, the whole call is timed) and returns false
/// when its output check failed.
using OpFn = std::function<bool(std::size_t index, double& timed_ms)>;

/// Runs ops until `seconds` have elapsed (at least `min_ops` of them, at
/// most args.max_ops when set), probing machine speed before each op and
/// after the last, after resetting the peak-RSS mark. When `setup` is given, every op starts from
/// a fresh, separately timed cold set-up. A failed check or an exception
/// counts the op as failed; its time is still recorded.
OpLog run_ops(const Args& args, double seconds, std::size_t min_ops,
              const OpFn& op, const std::function<void()>& setup = {});

/// Runs untraced ops (op(i, false)) and, with args.trace, traced ops
/// (op(i, true)) alternately within one budget, so both see the same phase
/// of the machine. Returns {untraced, traced}.
std::pair<OpLog, OpLog> run_ops_maybe_traced(
    const Args& args, std::size_t min_ops,
    const std::function<bool(std::size_t, bool, double&)>& op,
    const std::function<void()>& setup = {});

/// Fills the end-to-end metrics shared by every workload from an op log:
/// op_p50_ms and op_tail_ms (at `tail_q`), both scaled to the reference
/// speed, ok_ratio, peak_rss_mb, plus the context fields stating the tail
/// percentile, op count, probe median and the unscaled times. Call it
/// after the run's last probe.
void report_end_to_end(const OpLog& log, double tail_q, Report& report);

/// Sets setup_s, scaled to the reference speed, from the unscaled seconds.
void report_setup(double seconds, Report& report);

/// Sets rate_per_s from `work` units done in `busy_s` unscaled seconds of
/// op time, scaled to the reference speed.
void report_rate(double work, double busy_s, Report& report);

/// Brings the cores out of idle with a short spin (not kept as probe
/// readings), then runs one untimed `setup()` that finishes the process's
/// lazy initialisation (first-touch page faults, thread, registry and
/// dispatch start-up).
void warm_up(const std::function<void()>& setup);

/// Median of `count` cold set-ups, each timed around `setup()` after a
/// probe, after warm_up(setup); unscaled seconds. For set-ups long enough
/// that a few repetitions are steady; millisecond set-ups are timed before
/// every op by run_ops.
double median_setup_seconds(std::size_t count,
                            const std::function<void()>& setup);

/// Per-op layer self-times of traced ops, timed from this benchmark's own
/// calls into each layer's public functions.
class LayerClock {
 public:
  /// Runs `fn`, adding its wall time to layer `name` of the current op.
  template <class Fn>
  void time(const std::string& name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    add(name, seconds_since(start));
  }
  /// Adds `seconds` to layer `name` of the current op.
  void add(const std::string& name, double seconds) {
    current_[name] += seconds * 1e3;
  }
  /// Closes the current op.
  void end_op();
  /// Median over traced ops of layer `name`'s per-op milliseconds.
  double p50_ms(const std::string& name) const;
  /// Median over traced ops of the per-op sum over every layer.
  double p50_sum_ms() const;

 private:
  std::map<std::string, double> current_;
  std::vector<std::map<std::string, double>> ops_;
};

/// Fills the traced-run bookkeeping metrics: bench.trace_overhead_pct
/// (traced vs untraced op p50), bench.layer_coverage_pct (summed layer
/// self-times over the untraced op p50) and machine.probe_ms.
void report_trace_overhead(const OpLog& untraced, const OpLog& traced,
                           const LayerClock& layers, Report& report);

/// Threads the program may use: clients + server workers + MC workers stay
/// within this. Pinned, never left on auto.
std::size_t pinned_threads();

// Workload entry points (one per --workload name).
Report run_kle_build(const Args& args);
Report run_mc_ssta(const Args& args);
Report run_serve_mix(const Args& args);
Report run_kle_matfree(const Args& args);

/// Solves the kle_matfree reference eigenvalues with the dense assembled
/// path and writes them to `path`.
void write_matfree_reference(const std::string& path);

}  // namespace perfbench
