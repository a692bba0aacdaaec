// incast: incast_10000 — 10 000 DCTCP and NewReno senders over 8 leaves
// into a 2 Gbps core. The only workload whose event heap holds ~20 000
// components, where graph build dominates set-up and per-flow memory
// matters. The timed phase runs one shard, as remy-run does by default.
// Conservative-window PDES is checked in every run and timed only in the
// traced run: two shards advance in lockstep windows, so time the
// hypervisor takes from either vCPU stalls both at every barrier. On a
// shared 4-vCPU host, 10-16 s of steal in a 25 s run doubled the 2-shard
// time, and 2-shard wall time then spread 0.96 (IQR over median) across
// ten runs, beyond any bound the benchmark can set.
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common.hh"
#include "decorators.hh"
#include "sim/shard/shard_plan.hh"
#include "tracing.hh"

namespace perfbench {

namespace bench = remy::bench;
namespace core = remy::core;
namespace sim = remy::sim;
namespace util = remy::util;

namespace {

constexpr const char* kScenario = "incast_10000";
/// Shard count of the PDES check and of the traced speedup.
constexpr std::size_t kShards = 2;
constexpr std::uint64_t kSeedStride = 1000;

struct Budget {
  std::size_t runs;
  double duration_s;
};

Budget budget_of(const RunConfig& cfg) {
  return cfg.tiny ? Budget{1, 0.02} : Budget{1, 0.3};
}

struct Loaded {
  core::ScenarioSpec spec;
  bench::Scenario scenario;
  std::vector<bench::Scheme> schemes;
};

/// Everything before the first timed simulation: spec, scenario, schemes
/// and the first graph build.
Loaded setup() {
  const char* argv[] = {"perfbench"};
  const util::Cli no_overrides{1, argv};
  Loaded l;
  l.spec = bench::load_scenario(kScenario);
  l.scenario = bench::make_scenario(l.spec);
  l.schemes = bench::schemes_for(l.spec, no_overrides);
  bench::Scenario first = l.scenario;
  first.runs = 1;
  first.duration_s = 0.0;
  bench::run_scheme(first, l.schemes.front());
  return l;
}

/// ShardPlan at kShards must shard every scheme's topology; a fallback is a
/// failed op. Returns the plans, one per scheme.
std::vector<sim::ShardPlan> check_plans(Ops& ops, const Loaded& l) {
  std::vector<sim::ShardPlan> plans;
  for (const bench::Scheme& scheme : l.schemes) {
    plans.push_back(sim::ShardPlan::build(
        bench::make_run_topology(l.scenario, scheme, 0), kShards));
    ops.check(plans.back().sharded(), "shard plan for " + scheme.name +
                                          " fell back: " +
                                          plans.back().rejection);
  }
  return plans;
}

bench::Scenario budgeted(const Loaded& l, const Budget& b, std::size_t variant,
                         std::size_t shards) {
  bench::Scenario s = l.scenario;
  s.runs = b.runs;
  s.duration_s = b.duration_s;
  s.seed0 = l.spec.seed0 + kSeedStride * variant;
  s.shards = shards;
  return s;
}

struct UnitResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sim_self_s = 0.0;
  double rss_growth = 0.0;
  double flows = 0.0;
  std::size_t evaluations = 0;
  std::string hash;
};

/// Every scheme of the scenario at `shards`, hashed as execute_spec's
/// SpecRun would be.
UnitResult run_unit(const Loaded& l, const Budget& b, std::size_t variant,
                    std::size_t shards, bool trace) {
  bench::Scenario s = budgeted(l, b, variant, shards);
  if (trace) s.default_queue = traced_queue(s.default_queue);
  bench::SpecRun run;
  run.spec = l.spec;
  run.spec.seed0 = s.seed0;
  run.spec.schemes.clear();
  UnitResult r;
  for (const bench::Scheme& scheme : l.schemes) {
    run.spec.schemes.push_back(scheme.spec);
    if (trace) arm_rss_probe();
    const double cpu0 = cpu_seconds();
    Span span{"sim.scheme_runs", trace};
    run.results.push_back(bench::run_scheme(s, trace ? traced(scheme) : scheme));
    r.wall_s += span.close();
    r.cpu_s += cpu_seconds() - cpu0;
    r.sim_self_s += span.self_s();
    r.evaluations += s.runs;
    if (trace) {
      r.rss_growth += rss_probe_growth();
      r.flows += static_cast<double>(s.topology.num_flows());
    }
  }
  run.spec.runs = s.runs;
  run.spec.duration_s = s.duration_s;
  run.scenario = s;
  r.hash = hex64(bench::results_hash(bench::results_json(run)));
  return r;
}

/// Graph build of one unit at one shard: a zero-length run per scheme.
double build_seconds(const Loaded& l, const Budget& b, std::size_t variant) {
  bench::Scenario s = budgeted(l, b, variant, 1);
  s.runs = 1;
  s.duration_s = 0.0;
  double total = 0.0;
  for (const bench::Scheme& scheme : l.schemes) {
    Span span{"sim.build"};
    bench::run_scheme(s, scheme);
    total += span.close() * static_cast<double>(b.runs);
  }
  return total;
}

void check_hash(Ops& ops, const RunConfig& cfg, std::size_t variant,
                const UnitResult& r, const std::string& path) {
  const std::string want = reference(cfg, variant, "hash");
  ops.check(!want.empty() && r.hash == want,
            path + " incast variant " + std::to_string(variant) + " hash " +
                r.hash + " != reference " + want);
}

/// Exact decorator counts must not depend on the shard count.
bool same_counts(const LayerTotals& a, const LayerTotals& b) {
  return a.cc_calls == b.cc_calls && a.cc_loss_events == b.cc_loss_events &&
         a.cc_timeouts == b.cc_timeouts && a.aqm_enqueues == b.aqm_enqueues &&
         a.aqm_dequeues == b.aqm_dequeues && a.aqm_drops == b.aqm_drops &&
         a.aqm_ecn_marks == b.aqm_ecn_marks &&
         a.aqm_max_depth == b.aqm_max_depth;
}

}  // namespace

Outcome run_incast(const RunConfig& cfg) {
  Outcome out;
  const Budget b = budget_of(cfg);
  out.host["threads"] = 1;
  out.host["shards"] = 1;
  out.host["pdes_shards"] = kShards;
  out.host["runs_per_scheme"] = b.runs;
  out.host["sim_seconds_per_run"] = b.duration_s;

  const Loaded loaded = setup();
  const std::vector<sim::ShardPlan> plans = check_plans(out.ops, loaded);

  if (!cfg.trace) {
    SetupSampler setup_sampler{cfg};
    EndToEndSeries series;
    UnitResult cycle;
    run_cycles(
        cfg,
        [&](std::size_t v) {
          out.ops.guard("incast unit", [&] {
            const UnitResult r = run_unit(loaded, b, v, 1, false);
            check_hash(out.ops, cfg, v, r, "1-shard");
            cycle.wall_s += r.wall_s;
            cycle.cpu_s += r.cpu_s;
            cycle.evaluations += r.evaluations;
          });
        },
        [&](double rss_mb, double scale) {
          series.add(cycle.wall_s, cycle.cpu_s,
                     static_cast<double>(cycle.evaluations), rss_mb, scale);
          cycle = UnitResult{};
          setup_sampler.sample();
        });
    // PDES check, untimed: every variant at kShards must reproduce the
    // 1-shard reference.
    for (std::size_t v = 0; v < kVariants; ++v) {
      out.ops.guard("incast 2-shard unit", [&] {
        check_hash(out.ops, cfg, v, run_unit(loaded, b, v, kShards, false),
                   "2-shard");
      });
    }
    setup_sampler.top_up();
    series.report(out, setup_sampler);
    return out;
  }

  // Traced: per variant an untraced 1-shard unit, a traced 1-shard unit
  // (the per-layer split) and a traced 2-shard unit (the speedup); all
  // three must hash to the 1-shard reference.
  double fallbacks = 0.0;
  for (const sim::ShardPlan& plan : plans) fallbacks += plan.sharded() ? 0.0 : 1.0;
  out.metrics["shard.lookahead_ms"] = plans.front().lookahead_ms;
  out.metrics["shard.fallbacks"] = fallbacks;
  CycleSeries per_cycle;
  LayerTotals one_shard;
  UnitResult acc1;
  UnitResult acc2;
  double plain_wall = 0.0;
  double build_s = 0.0;
  take_totals();
  run_cycles(
      cfg,
      [&](std::size_t v) {
        out.ops.guard("incast traced unit", [&] {
          const UnitResult plain = run_unit(loaded, b, v, 1, false);
          check_hash(out.ops, cfg, v, plain, "untraced 1-shard");
          const UnitResult r1 = run_unit(loaded, b, v, 1, true);
          check_hash(out.ops, cfg, v, r1, "traced 1-shard");
          const LayerTotals t1 = take_totals();
          const UnitResult r2 = run_unit(loaded, b, v, kShards, true);
          check_hash(out.ops, cfg, v, r2, "traced 2-shard");
          out.ops.check(same_counts(t1, take_totals()),
                        "traced counts differ between 1 and 2 shards");
          one_shard.merge(t1);
          plain_wall += plain.wall_s;
          acc1.wall_s += r1.wall_s;
          acc1.sim_self_s += r1.sim_self_s;
          acc1.rss_growth += r1.rss_growth;
          acc1.flows += r1.flows;
          acc2.wall_s += r2.wall_s;
          acc2.cpu_s += r2.cpu_s;
          build_s += build_seconds(loaded, b, v);
        });
      },
      [&](double /*rss_mb*/, double /*scale*/) {
        auto& m = per_cycle;
        m["sim.build_ms"].push_back(build_s * 1e3);
        m["sim.self_s"].push_back(acc1.sim_self_s);
        m["sim.bytes_per_flow"].push_back(ratio(acc1.rss_growth, acc1.flows));
        m["shard.speedup"].push_back(ratio(acc1.wall_s, acc2.wall_s));
        m["shard.cpu_per_wall"].push_back(ratio(acc2.cpu_s, acc2.wall_s));
        m["tracing.overhead_frac"].push_back(ratio(acc1.wall_s, plain_wall));
        add_layer_metrics(m, one_shard, acc1.sim_self_s);
        one_shard = LayerTotals{};
        acc1 = acc2 = UnitResult{};
        plain_wall = build_s = 0.0;
      });
  out.cycles = per_cycle;
  for (const auto& [name, values] : per_cycle) out.metrics[name] = median(values);
  return out;
}

Metrics setup_incast(const RunConfig& /*cfg*/, std::size_t /*sample*/) {
  const std::int64_t t0 = now_ns();
  const Loaded loaded = setup();  // torn down after the clock is read
  return {{"setup_s", static_cast<double>(now_ns() - t0) * 1e-9}};
}

util::Json record_incast(const RunConfig& cfg) {
  const Budget b = budget_of(cfg);
  const std::string runs = std::to_string(b.runs);
  const std::string duration = exact(b.duration_s);
  const char* argv[] = {"perfbench", "--runs", runs.c_str(), "--duration",
                        duration.c_str()};
  const util::Cli one_shard{5, argv};
  util::JsonObject out;
  for (std::size_t v = 0; v < kVariants; ++v) {
    core::ScenarioSpec spec = bench::load_scenario(kScenario);
    spec.seed0 += kSeedStride * v;
    out[std::to_string(v)] = util::JsonObject{
        {"hash", hex64(bench::results_hash(
                     bench::results_json(bench::execute_spec(spec, one_shard))))}};
  }
  return util::Json{std::move(out)};
}

}  // namespace perfbench
