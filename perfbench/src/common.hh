// Shared plumbing of the three workloads: run configuration, the op ledger
// that counts checked outputs, metric maps, reference lookup and the cycle
// loop that spreads a run over every input variant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tracing.hh"
#include "util/json.hh"

namespace perfbench {

namespace util = remy::util;

/// Input variants per workload. Unit i of a run uses variant
/// (seed + i) % kVariants, and a run executes whole cycles of kVariants
/// units, so every run measures the same inputs in a seed-rotated order.
inline constexpr std::size_t kVariants = 4;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< the self-test budget
  /// References of this workload at this budget: variant -> value.
  util::Json refs;
};

/// Every checked output is one op; a mismatch or exception fails it.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
  /// Runs `fn`; an exception counts as one failed op.
  void guard(const std::string& what, const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      check(false, what + ": " + e.what());
    }
  }
};

/// Metric name -> value; units come from the benchmark's metric table.
using Metrics = std::map<std::string, double>;
/// Per-cycle values, reduced to their median at the end of a run.
using CycleSeries = std::map<std::string, std::vector<double>>;

struct Outcome {
  Ops ops;
  Metrics metrics;
  util::JsonObject host;  ///< thread and shard counts, budget
  CycleSeries cycles;     ///< per-cycle values behind each median
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(v.size()) * p / 100.0 + 0.999999));
  return v[std::min(rank, v.size()) - 1];
}

/// num / den, or 0 when nothing was measured (den == 0).
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

inline std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

inline std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// The recorded reference of `variant`, or "" when none is recorded.
inline std::string reference(const RunConfig& cfg, std::size_t variant,
                             const std::string& key) {
  const std::string v = std::to_string(variant);
  if (!cfg.refs.is_object() || !cfg.refs.contains(v)) return {};
  const util::Json& entry = cfg.refs.at(v);
  if (!entry.contains(key)) return {};
  return entry.at(key).as_string();
}

/// Runs whole cycles over the variants for about `seconds` (at least one
/// cycle). `unit(variant)` runs one unit; `end_cycle(peak_rss_mb, scale)`
/// closes a cycle. Each unit starts from a trimmed heap with the kernel's
/// high-water mark reset, and `peak_rss_mb` is the mean over the cycle's
/// units of each unit's peak resident set: one unit is one training run or
/// one pass over the scenarios, which is what a user's process holds.
/// `scale` is the HostSpeed scale of the cycle, from the reference work
/// timed before each unit and after the last.
void run_cycles(const RunConfig& cfg,
                const std::function<void(std::size_t)>& unit,
                const std::function<void(double, double)>& end_cycle);

/// One cold set-up: everything a fresh process does before its first timed
/// simulation. Returns "setup_s" and, where the workload splits its set-up
/// into steps, each step's time in ms under its per-layer metric name.
/// `sample` rotates the input variant where set-up depends on it.
using SetupFn = Metrics (*)(const RunConfig& cfg, std::size_t sample);
Metrics setup_paper_sweep(const RunConfig& cfg, std::size_t sample);
Metrics setup_remy_train(const RunConfig& cfg, std::size_t sample);
Metrics setup_incast(const RunConfig& cfg, std::size_t sample);

/// Set-up timing. Every sample is one cold set-up in a fresh process (this
/// binary re-run with --setup-only), so one-time costs such as registry
/// install, RemyCC table loads and first-touch allocation count in every
/// sample, as they do for remy-run. A run takes kInitialSetups samples
/// before its timed phase, one after every cycle and, if it has fewer than
/// kMinSetups then, more after the timed phase, so the median spans the
/// same stretch of host time as the timed metrics.
class SetupSampler {
 public:
  static constexpr std::size_t kInitialSetups = 5;
  static constexpr std::size_t kMinSetups = 15;

  explicit SetupSampler(const RunConfig& cfg);
  void sample();
  /// Samples until there are kMinSetups, so runs of few cycles still take
  /// a median over enough set-ups. Call after the timed phase.
  void top_up();
  /// Median over the samples of one value the set-up reported.
  double median_of(const std::string& name) const;

 private:
  const RunConfig& cfg_;
  std::vector<Metrics> samples_;
};

/// The end-to-end series of an untraced run, one value per cycle. The
/// times are reported at reference host speed (HostSpeed), set-up scaled by
/// the median of the cycles' scales; the host record gets the raw medians
/// and that median scale.
class EndToEndSeries {
 public:
  /// One cycle: its raw wall and CPU time, the evaluations it made, its
  /// peak_rss_mb and its HostSpeed scale.
  void add(double wall_s, double cpu_s, double evaluations, double rss_mb,
           double scale);
  /// Sets the end-to-end metrics (the cycles' medians, and setup_s from
  /// `setup`), the per-cycle series and the raw times in the host record.
  void report(Outcome& out, const SetupSampler& setup) const;

 private:
  std::vector<double> wall_, cpu_, rate_, rss_;
  std::vector<double> raw_wall_, raw_cpu_, scale_;
};

/// Appends one cycle's cc, aqm and packet metrics from the decorator
/// totals; `sim_self_s` is the simulator self time over the same runs.
void add_layer_metrics(CycleSeries& m, const LayerTotals& t, double sim_self_s);

using WorkloadFn = Outcome (*)(const RunConfig&);
Outcome run_paper_sweep(const RunConfig& cfg);
Outcome run_remy_train(const RunConfig& cfg);
Outcome run_incast(const RunConfig& cfg);

/// Reference recording: variant -> {key: value}, from the program's own
/// entry points (execute_spec, an untraced Trainer, a 1-shard run).
using RecordFn = util::Json (*)(const RunConfig& cfg);
util::Json record_paper_sweep(const RunConfig& cfg);
util::Json record_remy_train(const RunConfig& cfg);
util::Json record_incast(const RunConfig& cfg);

}  // namespace perfbench
