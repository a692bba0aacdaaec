// paper_sweep: the paper's few-flow experiments run the way remy-run runs
// them — one thread, a fresh component graph per run — over six shipped
// scenarios with all their schemes. Small event heaps (2-16 senders), so
// per-packet controller, queue-discipline, trace-link and harness costs
// dominate.
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common.hh"
#include "decorators.hh"
#include "tracing.hh"

namespace perfbench {

namespace bench = remy::bench;
namespace core = remy::core;
namespace util = remy::util;

namespace {

const std::vector<std::string> kScenarios{
    "table1_dumbbell", "fig5_dumbbell12", "table2_cellular",
    "fig9_saddle4",    "parking_lot",     "mixed_rtt_competing"};

/// Variant v shifts every run seed by v * kSeedStride.
constexpr std::uint64_t kSeedStride = 1000;

struct Budget {
  std::size_t runs;
  double duration_s;
};

Budget budget_of(const RunConfig& cfg) {
  return cfg.tiny ? Budget{1, 0.5} : Budget{2, 10.0};
}

struct Loaded {
  core::ScenarioSpec spec;
  bench::Scenario scenario;
  std::vector<bench::Scheme> schemes;  ///< per-flow schemes when mixed
  bool mixed = false;
};

std::vector<Loaded> setup(Metrics* times) {
  const char* argv[] = {"perfbench"};
  const util::Cli no_overrides{1, argv};
  std::vector<Loaded> out;
  for (const std::string& name : kScenarios) {
    Loaded l;
    {
      Span span{"bench.load"};
      l.spec = bench::load_scenario(name);
      (*times)["bench.load_ms"] += span.close() * 1e3;
    }
    {
      const bool trace_link = l.spec.link.kind != core::LinkSpec::Kind::kFixed;
      Span span{trace_link ? "trace.materialize" : "bench.materialize"};
      l.scenario = bench::make_scenario(l.spec);
      (*times)[trace_link ? "trace.materialize_ms" : "bench.materialize_ms"] +=
          span.close() * 1e3;
    }
    l.mixed = !l.spec.flow_schemes.empty();
    l.schemes = l.mixed
                    ? remy::cc::Registry::global().schemes(l.spec.flow_schemes)
                    : bench::schemes_for(l.spec, no_overrides);
    out.push_back(std::move(l));
  }
  return out;
}

/// The scenario as one unit runs it: the benchmark budget and the
/// variant's seeds.
bench::Scenario budgeted(const Loaded& l, const Budget& b, std::size_t variant) {
  bench::Scenario s = l.scenario;
  s.runs = b.runs;
  s.duration_s = b.duration_s;
  s.seed0 = l.spec.seed0 + kSeedStride * variant;
  return s;
}

struct UnitResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double results_s = 0.0;
  double sim_self_s = 0.0;
  double rss_growth = 0.0;
  double flows = 0.0;
  std::size_t evaluations = 0;  ///< (scheme, run) simulations
  std::vector<std::string> hashes;
};

/// One pass over the six scenarios, assembling the same SpecRun that
/// bench::execute_spec assembles.
UnitResult run_unit(const std::vector<Loaded>& loaded, const Budget& b,
                    std::size_t variant, bool trace) {
  UnitResult r;
  for (const Loaded& l : loaded) {
    bench::Scenario s = budgeted(l, b, variant);
    if (trace) s.default_queue = traced_queue(s.default_queue);
    bench::SpecRun run;
    run.spec = l.spec;
    run.spec.seed0 = s.seed0;
    const double flows = static_cast<double>(s.topology.num_flows());
    const auto simulate = [&](const std::function<void()>& fn) {
      if (trace) arm_rss_probe();
      const double cpu0 = cpu_seconds();
      Span span{"sim.scheme_runs", trace};
      fn();
      r.wall_s += span.close();
      r.cpu_s += cpu_seconds() - cpu0;
      r.sim_self_s += span.self_s();
      if (trace) {
        r.rss_growth += rss_probe_growth();
        r.flows += flows;
      }
    };
    if (l.mixed) {
      simulate([&] {
        run.results = bench::run_mixed(s, trace ? traced(l.schemes) : l.schemes);
      });
      r.evaluations += s.runs;
    } else {
      run.spec.schemes.clear();
      run.spec.flow_schemes.clear();
      for (const bench::Scheme& scheme : l.schemes) {
        run.spec.schemes.push_back(scheme.spec);
        simulate([&] {
          run.results.push_back(
              bench::run_scheme(s, trace ? traced(scheme) : scheme));
        });
        r.evaluations += s.runs;
      }
    }
    run.spec.runs = s.runs;
    run.spec.duration_s = s.duration_s;
    run.scenario = s;
    const double cpu0 = cpu_seconds();
    Span span{"bench.results", trace};
    r.hashes.push_back(hex64(bench::results_hash(bench::results_json(run))));
    r.results_s += span.close();
    r.wall_s += span.duration_s();
    r.cpu_s += cpu_seconds() - cpu0;
  }
  return r;
}

/// Graph-build cost of one unit: each scheme's graph built and torn down
/// with a zero-length run, times the runs that rebuild it.
double build_seconds(const std::vector<Loaded>& loaded, const Budget& b,
                     std::size_t variant) {
  double total = 0.0;
  for (const Loaded& l : loaded) {
    bench::Scenario s = budgeted(l, b, variant);
    s.runs = 1;
    s.duration_s = 0.0;
    const auto one = [&](const std::function<void()>& fn) {
      Span span{"sim.build"};
      fn();
      total += span.close() * static_cast<double>(b.runs);
    };
    if (l.mixed) {
      one([&] { bench::run_mixed(s, l.schemes); });
    } else {
      for (const bench::Scheme& scheme : l.schemes) {
        one([&] { bench::run_scheme(s, scheme); });
      }
    }
  }
  return total;
}

void check_hashes(Ops& ops, const RunConfig& cfg, std::size_t variant,
                  const std::vector<std::string>& hashes, const char* path) {
  for (std::size_t i = 0; i < kScenarios.size(); ++i) {
    const std::string want = reference(cfg, variant, kScenarios[i]);
    ops.check(i < hashes.size() && !want.empty() && hashes[i] == want,
              std::string{path} + " " + kScenarios[i] + " variant " +
                  std::to_string(variant) + " hash " +
                  (i < hashes.size() ? hashes[i] : "missing") + " != " + want);
  }
}

/// remy-run --smoke --hash over the same scenarios must reproduce the
/// digests blessed in data/scheme_digests.json.
void check_smoke_digests(Ops& ops) {
  const util::Json blessed = util::json_from_file(
      std::string{REMY_DATA_DIR} + "/scheme_digests.json");
  const char* argv[] = {"perfbench", "--smoke"};
  const util::Cli smoke{2, argv};
  for (const std::string& name : kScenarios) {
    ops.guard("smoke " + name, [&] {
      const std::string got = hex64(bench::results_hash(bench::results_json(
          bench::execute_spec(bench::load_scenario(name), smoke))));
      const std::string want = blessed.at("digests").at(name).as_string();
      ops.check(got == want, "smoke digest " + name + " " + got + " != " + want);
    });
  }
}

}  // namespace

Outcome run_paper_sweep(const RunConfig& cfg) {
  Outcome out;
  const Budget b = budget_of(cfg);
  out.host["threads"] = 1;
  out.host["shards"] = 1;
  out.host["runs_per_scheme"] = b.runs;
  out.host["sim_seconds_per_run"] = b.duration_s;

  // This set-up only provides the run's inputs; set-up is timed cold, in
  // SetupSampler's processes.
  Metrics untimed;
  const std::vector<Loaded> loaded = setup(&untimed);
  SetupSampler setup_sampler{cfg};

  if (!cfg.trace) {
    EndToEndSeries series;
    UnitResult cycle;
    run_cycles(
        cfg,
        [&](std::size_t v) {
          out.ops.guard("paper_sweep unit", [&] {
            const UnitResult r = run_unit(loaded, b, v, false);
            cycle.wall_s += r.wall_s;
            cycle.cpu_s += r.cpu_s;
            cycle.evaluations += r.evaluations;
            check_hashes(out.ops, cfg, v, r.hashes, "untraced");
          });
        },
        [&](double rss_mb, double scale) {
          series.add(cycle.wall_s, cycle.cpu_s,
                     static_cast<double>(cycle.evaluations), rss_mb, scale);
          cycle = UnitResult{};
          setup_sampler.sample();
        });
    check_smoke_digests(out.ops);
    setup_sampler.top_up();
    series.report(out, setup_sampler);
    return out;
  }

  // Traced run: per variant, an untraced unit then a traced one; the
  // traced hashes must match, which proves the decorators change nothing.
  CycleSeries per_cycle;
  UnitResult acc;
  double plain_wall = 0.0;
  double build_s = 0.0;
  take_totals();
  run_cycles(
      cfg,
      [&](std::size_t v) {
        out.ops.guard("paper_sweep traced unit", [&] {
          const UnitResult plain = run_unit(loaded, b, v, false);
          check_hashes(out.ops, cfg, v, plain.hashes, "untraced");
          const UnitResult r = run_unit(loaded, b, v, true);
          check_hashes(out.ops, cfg, v, r.hashes, "traced");
          plain_wall += plain.wall_s;
          acc.wall_s += r.wall_s;
          acc.results_s += r.results_s;
          acc.sim_self_s += r.sim_self_s;
          acc.rss_growth += r.rss_growth;
          acc.flows += r.flows;
          build_s += build_seconds(loaded, b, v);
        });
      },
      [&](double /*rss_mb*/, double /*scale*/) {
        const LayerTotals t = take_totals();
        auto& m = per_cycle;
        m["bench.results_ms"].push_back(acc.results_s * 1e3);
        m["sim.build_ms"].push_back(build_s * 1e3);
        m["sim.self_s"].push_back(acc.sim_self_s);
        m["sim.bytes_per_flow"].push_back(ratio(acc.rss_growth, acc.flows));
        m["tracing.overhead_frac"].push_back(ratio(acc.wall_s, plain_wall));
        add_layer_metrics(m, t, acc.sim_self_s);
        acc = UnitResult{};
        plain_wall = build_s = 0.0;
        setup_sampler.sample();
      });
  check_smoke_digests(out.ops);
  out.cycles = per_cycle;
  for (const auto& [name, values] : per_cycle) out.metrics[name] = median(values);
  for (const char* step :
       {"bench.load_ms", "bench.materialize_ms", "trace.materialize_ms"}) {
    out.metrics[step] = setup_sampler.median_of(step);
  }
  return out;
}

Metrics setup_paper_sweep(const RunConfig& /*cfg*/, std::size_t /*sample*/) {
  Metrics times;
  const std::int64_t t0 = now_ns();
  const std::vector<Loaded> loaded = setup(&times);  // torn down afterwards
  times["setup_s"] = static_cast<double>(now_ns() - t0) * 1e-9;
  return times;
}

util::Json record_paper_sweep(const RunConfig& cfg) {
  const Budget b = budget_of(cfg);
  const std::string runs = std::to_string(b.runs);
  const std::string duration = exact(b.duration_s);
  const char* argv[] = {"perfbench", "--runs", runs.c_str(), "--duration",
                        duration.c_str()};
  const util::Cli budget{5, argv};
  util::JsonObject out;
  for (std::size_t v = 0; v < kVariants; ++v) {
    util::JsonObject entry;
    for (const std::string& name : kScenarios) {
      core::ScenarioSpec spec = bench::load_scenario(name);
      spec.seed0 += kSeedStride * v;
      entry[name] = hex64(bench::results_hash(
          bench::results_json(bench::execute_spec(spec, budget))));
    }
    out[std::to_string(v)] = std::move(entry);
  }
  return util::Json{std::move(out)};
}

}  // namespace perfbench
