#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

std::atomic<std::uint64_t> probe_sink{0};  // keeps the probe loop alive
std::vector<double> probe_readings;

/// xorshift64 chain: every step depends on the previous one, so the loop
/// neither vectorizes nor touches memory. The start value comes from the
/// clock so the compiler cannot evaluate the chain ahead of time.
double timed_probe() {
  std::uint64_t x =
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()) | 1;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = seconds_since(start) * 1e3;
  probe_sink.store(x, std::memory_order_relaxed);
  return ms;
}

}  // namespace

double noise_probe_ms() {
  const double ms = timed_probe();
  probe_readings.push_back(ms);
  return ms;
}

double probe_median_ms() { return median(probe_readings); }

double machine_speed_scale() {
  const double probe = probe_median_ms();
  return probe > 0.0 ? kReferenceProbeMs / probe : 1.0;
}

void reset_peak_rss() {
  // Hand the heap the repeated set-ups freed back to the system first, so
  // the baseline is the memory the program still holds, not allocator
  // leftovers whose size depends on thread timing.
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark to the current RSS (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    std::fclose(f);
    if (kib > 0.0) return kib / 1024.0;
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

std::uint64_t hash_doubles(const double* values, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

void Report::fail_check(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

OpLog run_ops(const Args& args, double seconds, std::size_t min_ops,
              const OpFn& op, const std::function<void()>& setup) {
  OpLog log;
  reset_peak_rss();
  const Clock::time_point begin = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (args.max_ops > 0 && i >= args.max_ops) break;
    if (i >= min_ops && seconds_since(begin) >= seconds) {
      noise_probe_ms();  // the machine's speed after the last op
      break;
    }
    noise_probe_ms();
    if (setup) {
      const Clock::time_point start = Clock::now();
      setup();
      log.setup_s.push_back(seconds_since(start));
    }
    ++log.attempted;
    const Clock::time_point start = Clock::now();
    try {
      double timed_ms = -1.0;
      const bool ok = op(i, timed_ms);
      log.op_ms.push_back(timed_ms >= 0.0 ? timed_ms
                                          : seconds_since(start) * 1e3);
      if (!ok) ++log.failed;
    } catch (const std::exception& e) {
      // Keep the time so traced/untraced ops stay paired by position.
      std::fprintf(stderr, "perfbench: op %zu failed: %s\n", i, e.what());
      log.op_ms.push_back(seconds_since(start) * 1e3);
      ++log.failed;
    }
  }
  return log;
}

std::pair<OpLog, OpLog> run_ops_maybe_traced(
    const Args& args, std::size_t min_ops,
    const std::function<bool(std::size_t, bool, double&)>& op,
    const std::function<void()>& setup) {
  if (!args.trace) {
    return {run_ops(
                args, args.seconds, min_ops,
                [&](std::size_t i, double& ms) { return op(i, false, ms); },
                setup),
            OpLog{}};
  }
  OpLog untraced;
  OpLog traced;
  const OpLog both = run_ops(
      args, args.seconds, 2 * min_ops,
      [&](std::size_t i, double& ms) { return op(i / 2, i % 2 == 1, ms); },
      setup);
  for (std::size_t i = 0; i < both.op_ms.size(); ++i) {
    OpLog& side = i % 2 == 1 ? traced : untraced;
    side.op_ms.push_back(both.op_ms[i]);
  }
  untraced.attempted = both.attempted;
  untraced.failed = both.failed;
  return {untraced, traced};
}

void report_end_to_end(const OpLog& log, double tail_q, Report& report) {
  report.attempted += log.attempted;
  report.failed += log.failed;
  const double scale = machine_speed_scale();
  const double p50 = median(log.op_ms);
  const double tail = percentile(log.op_ms, tail_q);
  report.set("op_p50_ms", p50 * scale, "ms");
  report.set("op_tail_ms", tail * scale, "ms");
  const double ok = log.attempted == 0
                        ? 0.0
                        : static_cast<double>(log.attempted - log.failed) /
                              static_cast<double>(log.attempted);
  report.set("ok_ratio", ok, "ratio");
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  char tail_name[64];
  std::snprintf(tail_name, sizeof(tail_name), "p%g", tail_q * 100.0);
  report.context["op_tail_percentile"] = tail_name;
  report.context["ops"] = std::to_string(log.op_ms.size());
  const double beyond =
      static_cast<double>(log.op_ms.size()) * (1.0 - tail_q);
  report.context["ops_beyond_tail"] = std::to_string(
      static_cast<long long>(beyond));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", probe_median_ms());
  report.context["probe_ms_p50"] = buf;
  std::snprintf(buf, sizeof(buf), "%.4f", scale);
  report.context["speed_scale"] = buf;
  std::snprintf(buf, sizeof(buf), "%.4f", p50);
  report.context["unscaled_op_p50_ms"] = buf;
  std::snprintf(buf, sizeof(buf), "%.4f", tail);
  report.context["unscaled_op_tail_ms"] = buf;
}

void report_setup(double seconds, Report& report) {
  report.set("setup_s", seconds * machine_speed_scale(), "s");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  report.context["unscaled_setup_s"] = buf;
}

void report_rate(double work, double busy_s, Report& report) {
  const double scaled_s = busy_s * machine_speed_scale();
  report.set("rate_per_s", scaled_s > 0.0 ? work / scaled_s : 0.0, "1/s");
}

void warm_up(const std::function<void()>& setup) {
  for (int i = 0; i < 5; ++i) timed_probe();
  setup();
}

double median_setup_seconds(std::size_t count,
                            const std::function<void()>& setup) {
  warm_up(setup);
  std::vector<double> seconds;
  for (std::size_t i = 0; i < count; ++i) {
    noise_probe_ms();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(seconds_since(start));
  }
  return median(seconds);
}

void LayerClock::end_op() {
  ops_.push_back(current_);
  current_.clear();
}

double LayerClock::p50_ms(const std::string& name) const {
  std::vector<double> values;
  for (const auto& op : ops_) {
    const auto it = op.find(name);
    values.push_back(it == op.end() ? 0.0 : it->second);
  }
  return median(values);
}

double LayerClock::p50_sum_ms() const {
  std::vector<double> sums;
  for (const auto& op : ops_) {
    double sum = 0.0;
    for (const auto& [name, ms] : op) sum += ms;
    sums.push_back(sum);
  }
  return median(sums);
}

void report_trace_overhead(const OpLog& untraced, const OpLog& traced,
                           const LayerClock& layers, Report& report) {
  const double base = median(untraced.op_ms);
  const double with_trace = median(traced.op_ms);
  report.set("bench.trace_overhead_pct",
             base > 0.0 ? 100.0 * (with_trace - base) / base : 0.0, "%");
  report.set("bench.layer_coverage_pct",
             base > 0.0 ? 100.0 * layers.p50_sum_ms() / base : 0.0, "%");
  report.set("machine.probe_ms", probe_median_ms(), "ms");
  report.context["traced_ops"] = std::to_string(traced.op_ms.size());
  report.context["untraced_ops"] = std::to_string(untraced.op_ms.size());
}

std::size_t pinned_threads() {
  return std::min<std::size_t>(4, hardware_threads());
}

}  // namespace perfbench
