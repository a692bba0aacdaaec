// perfbench: the repository benchmark's main program.
//
//   perfbench --workload paper_sweep|remy_train|incast --seed N
//             --seconds S --trace 0|1 [--tiny] [--refs FILE]
//             [--out-dir DIR] [--commit C] [--source-digest D]
//   perfbench --record-refs FILE [--tiny]
//   perfbench --setup-only --workload W --sample K [--tiny]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. Every output
// is checked against a reference recorded from the program's own entry
// points; the last line of stdout is the result object. --setup-only
// performs one cold set-up and prints its times; a run spawns it to sample
// set-up. perfbench/run.py builds this binary and is the command to use.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hh"
#include "host_speed.hh"
#include "tracing.hh"
#include "util/cli.hh"

namespace perfbench {

namespace util = remy::util;

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd{{"setup_s", "s"},
                                       {"wall_s", "s"},
                                       {"cpu_s", "s"},
                                       {"peak_rss_mb", "MB"},
                                       {"candidates_per_s", "1/s"}};

const std::vector<std::string> kCcFamilies{"newreno", "vegas", "cubic",
                                           "compound", "xcp", "dctcp", "remy"};
const std::vector<std::string> kAqmFamilies{"droptail", "sfqcodel", "xcp",
                                            "ecn"};

/// The per-layer metrics, in BENCHMARK.json order. A workload that bypasses
/// a layer reports its metrics as 0.
std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d{
      {"bench.load_ms", "ms"},
      {"bench.materialize_ms", "ms"},
      {"bench.results_ms", "ms"},
      {"trace.materialize_ms", "ms"},
      {"sim.build_ms", "ms"},
      {"sim.self_s", "s"},
      {"sim.pkts", "count"},
      {"sim.ns_per_pkt", "ns"},
      {"sim.bytes_per_flow", "B"},
      {"shard.speedup", "ratio"},
      {"shard.cpu_per_wall", "ratio"},
      {"shard.lookahead_ms", "sim_ms"},
      {"shard.fallbacks", "count"},
      {"cc.calls", "count"},
      {"cc.self_s", "s"},
      {"cc.on_ack_ns", "ns"}};
  for (const auto& f : kCcFamilies) d.push_back({"cc.on_ack_ns." + f, "ns"});
  d.insert(d.end(), {{"cc.loss_events", "count"},
                     {"cc.timeouts", "count"},
                     {"aqm.enqueues", "count"},
                     {"aqm.drops", "count"},
                     {"aqm.drop_ratio", "ratio"},
                     {"aqm.ecn_marks", "count"},
                     {"aqm.max_depth_pkts", "count"},
                     {"aqm.self_s", "s"},
                     {"aqm.op_ns", "ns"}});
  for (const auto& f : kAqmFamilies) d.push_back({"aqm.op_ns." + f, "ns"});
  d.insert(d.end(), {{"core.candidates", "count"},
                     {"core.evaluate_ms.p50", "ms"},
                     {"core.evaluate_ms.p90", "ms"},
                     {"core.cold_batch_s", "s"},
                     {"core.warm_batch_s", "s"},
                     {"core.trainer_self_s", "s"},
                     {"util.pool_busy_frac", "ratio"},
                     {"tracing.overhead_frac", "ratio"}});
  return d;
}

struct Workload {
  const char* name;
  WorkloadFn run;
  RecordFn record;
  SetupFn setup;
};

const std::vector<Workload> kWorkloads{
    {"paper_sweep", run_paper_sweep, record_paper_sweep, setup_paper_sweep},
    {"remy_train", run_remy_train, record_remy_train, setup_remy_train},
    {"incast", run_incast, record_incast,
     setup_incast}};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--tiny] [--refs FILE] [--out-dir DIR]\n"
               "       perfbench --record-refs FILE [--tiny]\n"
               "       perfbench --setup-only --workload W --sample K "
               "[--tiny]\n",
               why);
  return 2;
}

/// Records every workload's references at the chosen budget into `path`,
/// keeping the other budget's entries.
int record_refs(const std::string& path, bool tiny) {
  util::Json all = util::JsonObject{};
  if (::access(path.c_str(), F_OK) == 0) all = util::json_from_file(path);
  util::JsonObject& budgets = all.as_object();
  util::JsonObject entry;
  for (const Workload& w : kWorkloads) {
    RunConfig cfg;
    cfg.workload = w.name;
    cfg.tiny = tiny;
    std::fprintf(stderr, "perfbench: recording %s\n", w.name);
    entry[w.name] = w.record(cfg);
  }
  budgets[tiny ? "tiny" : "bench"] = util::Json{std::move(entry)};
  util::json_to_file(all, path);
  return 0;
}

/// The child side of SetupSampler: one cold set-up, printed as one JSON
/// object of its times.
int setup_only(const Workload& w, const RunConfig& cfg, std::size_t sample) {
  util::JsonObject times;
  for (const auto& [name, value] : w.setup(cfg, sample)) times[name] = value;
  std::printf("%s\n", util::Json{std::move(times)}.dump().c_str());
  return 0;
}

/// Runs `argv` with stdout captured; throws unless it exits 0.
std::string capture(const std::vector<std::string>& argv) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw std::runtime_error{"pipe failed"};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                              environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (err == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0 ||
           (n < 0 && errno == EINTR)) {
      if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fds[0]);
  if (err != 0) throw std::runtime_error{"cannot start " + argv[0]};
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error{"set-up process failed"};
  }
  return out;
}

std::string self_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error{"cannot resolve /proc/self/exe"};
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace

void add_layer_metrics(CycleSeries& m, const LayerTotals& t, double sim_self_s) {
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  m["sim.pkts"].push_back(count(t.aqm_dequeues));
  m["sim.ns_per_pkt"].push_back(ratio(sim_self_s * 1e9, count(t.aqm_dequeues)));
  m["cc.calls"].push_back(count(t.cc_calls));
  m["cc.self_s"].push_back(static_cast<double>(t.cc_ns) * 1e-9);
  m["cc.loss_events"].push_back(count(t.cc_loss_events));
  m["cc.timeouts"].push_back(count(t.cc_timeouts));
  FamilyTotals acks;
  for (const auto& [family, f] : t.cc_on_ack) {
    acks.calls += f.calls;
    acks.ns += f.ns;
  }
  m["cc.on_ack_ns"].push_back(
      ratio(static_cast<double>(acks.ns), count(acks.calls)));
  for (const auto& family : kCcFamilies) {
    const auto it = t.cc_on_ack.find(family);
    m["cc.on_ack_ns." + family].push_back(
        it == t.cc_on_ack.end()
            ? 0.0
            : ratio(static_cast<double>(it->second.ns), count(it->second.calls)));
  }
  m["aqm.enqueues"].push_back(count(t.aqm_enqueues));
  m["aqm.drops"].push_back(count(t.aqm_drops));
  m["aqm.drop_ratio"].push_back(
      ratio(count(t.aqm_drops), count(t.aqm_enqueues)));
  m["aqm.ecn_marks"].push_back(count(t.aqm_ecn_marks));
  m["aqm.max_depth_pkts"].push_back(count(t.aqm_max_depth));
  FamilyTotals ops;
  for (const auto& [family, f] : t.aqm_ops) {
    ops.calls += f.calls;
    ops.ns += f.ns;
  }
  m["aqm.self_s"].push_back(static_cast<double>(ops.ns) * 1e-9);
  m["aqm.op_ns"].push_back(ratio(static_cast<double>(ops.ns), count(ops.calls)));
  for (const auto& family : kAqmFamilies) {
    const auto it = t.aqm_ops.find(family);
    m["aqm.op_ns." + family].push_back(
        it == t.aqm_ops.end()
            ? 0.0
            : ratio(static_cast<double>(it->second.ns), count(it->second.calls)));
  }
}

void run_cycles(const RunConfig& cfg,
                const std::function<void(std::size_t)>& unit,
                const std::function<void(double, double)>& end_cycle) {
  HostSpeed speed;
  const std::int64_t t0 = now_ns();
  double last_cycle_s = 0.0;
  // A cycle starts only if it should end within the budget (the first one
  // always runs), so a run lasts about --seconds, never a cycle longer.
  do {
    const std::int64_t c0 = now_ns();
    double rss_mb = 0.0;
    for (std::size_t i = 0; i < kVariants; ++i) {
      speed.probe();
      reset_peak_rss();
      unit((cfg.seed + i) % kVariants);
      rss_mb += peak_rss_mb();
    }
    speed.probe();
    end_cycle(rss_mb / static_cast<double>(kVariants), speed.take_scale());
    last_cycle_s = static_cast<double>(now_ns() - c0) * 1e-9;
  } while (static_cast<double>(now_ns() - t0) * 1e-9 + last_cycle_s <=
           cfg.seconds);
}

SetupSampler::SetupSampler(const RunConfig& cfg) : cfg_{cfg} {
  for (std::size_t i = 0; i < kInitialSetups; ++i) sample();
}

void SetupSampler::sample() {
  std::vector<std::string> argv{self_path(), "--setup-only", "--workload",
                                cfg_.workload, "--sample",
                                std::to_string(cfg_.seed + samples_.size())};
  if (cfg_.tiny) argv.emplace_back("--tiny");
  const util::Json times = util::Json::parse(capture(argv));
  Metrics m;
  for (const auto& [name, value] : times.as_object()) m[name] = value.as_number();
  samples_.push_back(std::move(m));
}

void SetupSampler::top_up() {
  while (samples_.size() < kMinSetups) sample();
}

double SetupSampler::median_of(const std::string& name) const {
  std::vector<double> values;
  for (const Metrics& m : samples_) {
    const auto it = m.find(name);
    if (it != m.end()) values.push_back(it->second);
  }
  return median(std::move(values));
}

void EndToEndSeries::add(double wall_s, double cpu_s, double evaluations,
                         double rss_mb, double scale) {
  raw_wall_.push_back(wall_s);
  raw_cpu_.push_back(cpu_s);
  scale_.push_back(scale);
  wall_.push_back(wall_s * scale);
  cpu_.push_back(cpu_s * scale);
  rate_.push_back(ratio(evaluations, wall_s * scale));
  rss_.push_back(rss_mb);
}

void EndToEndSeries::report(Outcome& out, const SetupSampler& setup) const {
  // Set-up is scaled by the run's cycles: reference work timed around each
  // set-up sample read fast phases as faster than set-up runs in them.
  out.metrics["setup_s"] = setup.median_of("setup_s") * median(scale_);
  out.metrics["wall_s"] = median(wall_);
  out.metrics["cpu_s"] = median(cpu_);
  out.metrics["candidates_per_s"] = median(rate_);
  out.metrics["peak_rss_mb"] = median(rss_);
  out.cycles = {{"wall_s", wall_},         {"cpu_s", cpu_},
                {"candidates_per_s", rate_}, {"peak_rss_mb", rss_},
                {"raw_wall_s", raw_wall_}, {"raw_cpu_s", raw_cpu_},
                {"host_scale", scale_}};
  out.host["raw_setup_s"] = setup.median_of("setup_s");
  out.host["raw_wall_s"] = median(raw_wall_);
  out.host["raw_cpu_s"] = median(raw_cpu_);
  out.host["host_scale"] = median(scale_);
}

int main_impl(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  cli.require_known({"workload", "seed", "seconds", "trace", "tiny", "refs",
                     "out-dir", "commit", "source-digest", "record-refs",
                     "setup-only", "sample"});
  const bool tiny = cli.get("tiny", false);
  if (cli.has("record-refs")) {
    return record_refs(cli.get("record-refs", std::string{}), tiny);
  }

  RunConfig cfg;
  cfg.workload = cli.get("workload", std::string{});
  cfg.tiny = tiny;
  if (cli.get("setup-only", false)) {
    const Workload* w = find_workload(cfg.workload);
    if (w == nullptr) return usage("unknown --workload");
    return setup_only(
        *w, cfg, static_cast<std::size_t>(cli.get("sample", std::int64_t{0})));
  }
  cfg.seed = static_cast<std::uint64_t>(cli.get("seed", std::int64_t{-1}));
  cfg.seconds = cli.get("seconds", -1.0);
  cfg.trace = cli.get("trace", std::int64_t{0}) != 0;
  if (!cli.has("seed") || !cli.has("seconds") || !cli.has("trace")) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (cfg.seconds <= 0.0 || !std::isfinite(cfg.seconds)) {
    return usage("--seconds must be positive");
  }
  const Workload* workload = find_workload(cfg.workload);
  if (workload == nullptr) return usage("unknown --workload");

  const std::string refs_path = cli.get("refs", std::string{"perfbench/refs.json"});
  const util::Json refs = util::json_from_file(refs_path);
  const char* budget = tiny ? "tiny" : "bench";
  if (!refs.contains(budget) || !refs.at(budget).contains(cfg.workload)) {
    return usage("no references for this workload and budget");
  }
  cfg.refs = refs.at(budget).at(cfg.workload);

  if (cfg.trace) enable_span_log();
  const double steal0 = host_steal_s();
  Outcome out = workload->run(cfg);
  const double steal = host_steal_s() - steal0;

  // Every metric the benchmark defines, with its unit; a layer the workload
  // never calls into reads 0.
  util::JsonObject metrics;
  const auto emit = [&](const std::string& name, const std::string& unit) {
    const auto it = out.metrics.find(name);
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    metrics[name] = util::JsonObject{{"value", value}, {"unit", unit}};
  };
  for (const MetricDef& m : cfg.trace ? per_layer_defs() : kEndToEnd) {
    emit(m.name, m.unit);
  }

  util::JsonObject host = out.host;
  host["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  host["compiler"] = PERFBENCH_COMPILER;
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["commit"] = cli.get("commit", std::string{"unknown"});
  host["source_digest"] = cli.get("source-digest", std::string{"unknown"});
  host["workload"] = cfg.workload;
  host["seed"] = static_cast<double>(cfg.seed);
  host["trace"] = cfg.trace;
  host["budget"] = budget;
  // Time the hypervisor ran other guests on this VM's CPUs during the run;
  // a shared host's slow phases show only partly here (see host_speed.hh).
  host["steal_s"] = steal;

  const util::Json result{util::JsonObject{
      {"correct", out.ops.failed == 0 && out.ops.attempted > 0},
      {"attempted", static_cast<double>(out.ops.attempted)},
      {"failed", static_cast<double>(out.ops.failed)},
      {"metrics", util::Json{metrics}}}};

  const std::string out_dir = cli.get("out-dir", std::string{});
  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + "-trace" +
                             (cfg.trace ? "1" : "0");
    util::JsonObject cycles;
    for (const auto& [name, values] : out.cycles) {
      cycles[name] = util::JsonArray(values.begin(), values.end());
    }
    util::json_to_file(util::JsonObject{{"host", util::Json{host}},
                                        {"cycles", util::Json{cycles}},
                                        {"result", result}},
                       stem + ".json");
    if (cfg.trace) write_span_log(stem + ".spans.jsonl");
  }
  std::printf("%s\n", util::Json{util::JsonObject{{"host", util::Json{host}}}}
                          .dump()
                          .c_str());
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
