// remy_train: an in-process core::Trainer run on the paper's general
// delta=1 prior (1-16 senders, 10-20 Mbps, 100-200 ms, unlimited buffers)
// on 2 threads, with one whisker so every epoch is one improvement round of
// up to 125 candidate tables, and every run adopts at least one of them.
// It exercises the Evaluator arena (reset and rebind), RemyController
// whisker lookup on every ACK, usage recording and util::ThreadPool; the
// deep unbounded queues drive memory. It bypasses the bench harness, trace
// links, sfqCoDel/XCP gateways and sharding.
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common.hh"
#include "core/trainer.hh"
#include "tracing.hh"

namespace perfbench {

namespace core = remy::core;
namespace util = remy::util;

namespace {

constexpr std::size_t kThreads = 2;

/// Evaluator seed of each variant: one fixed specimen set each. Within the
/// 1 s horizon, many seeds draw a specimen whose senders never turn on or
/// deliver nothing; it sits on the utility floor (-1e9) for every
/// candidate and swamps the score. These are the first seeds in 1-24 (8
/// specimens) and 1-12 (the self-test's 2) whose specimens all deliver, so
/// the candidates' scores decide the search.
constexpr std::uint64_t kEvalSeeds[kVariants] = {8, 14, 21, 23};
constexpr std::uint64_t kTinyEvalSeeds[kVariants] = {7, 8, 10, 12};

core::TrainerOptions options_for(const RunConfig& cfg, std::size_t variant) {
  core::TrainerOptions opt;
  opt.eval.num_specimens = cfg.tiny ? 2 : 8;
  opt.eval.simulation_ms = 1000.0;
  opt.eval.seed = (cfg.tiny ? kTinyEvalSeeds : kEvalSeeds)[variant];
  opt.max_epochs = 2;           // two rounds: a cold batch, then a warm one
  opt.max_whiskers = 1;
  opt.max_improvement_rounds = 1;
  opt.threads = kThreads;
  return opt;
}

/// FNV-1a over the pretty-printed table: the digest remy-train --digest
/// prints.
std::string tree_digest(const core::WhiskerTree& tree) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : tree.to_json().dump(2)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return hex64(h);
}

struct UnitResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t candidates = 0;
  std::size_t improvements = 0;  ///< candidates adopted
  std::string digest;
  std::string score;
};

/// Scoring-batch observations of one traced trainer run.
struct BatchStats {
  std::mutex mutex;
  std::vector<double> evaluate_ms;
  double evaluate_s = 0.0;
  double batch_s = 0.0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  double trainer_self_s = 0.0;
};

UnitResult run_unit(const RunConfig& cfg, std::size_t variant,
                    BatchStats* stats) {
  const core::ConfigRange range = core::ConfigRange::paper_general(1.0);
  core::TrainerOptions opt = options_for(cfg, variant);
  // Traced: the batch scorer replays the Trainer's in-process default (the
  // same Evaluator options on a 2-thread pool) with a span per batch and per
  // candidate; the digest check proves it scores bit-identically.
  std::optional<core::Evaluator> evaluator;
  std::optional<util::ThreadPool> pool;
  std::size_t batches = 0;  // the first batch builds the fresh arena
  if (stats != nullptr) {
    evaluator.emplace(range, opt.eval);
    pool.emplace(kThreads);
    // Trainer::run scores the start table on its own Evaluator before the
    // first batch, which leaves one pooled network per specimen; warming
    // this one the same way keeps the first batch's arena builds equal.
    evaluator->evaluate(core::WhiskerTree{}, false, &*pool);
    opt.batch_scorer = [&](const std::vector<core::WhiskerTree>& trees) {
      Span batch{"core.batch"};
      std::vector<double> scores = pool->map(trees.size(), [&](std::size_t i) {
        Span span{"core.evaluate"};
        const double score = evaluator->evaluate(trees[i]).score;
        span.close();
        const std::lock_guard lock{stats->mutex};
        stats->evaluate_ms.push_back(span.duration_s() * 1e3);
        stats->evaluate_s += span.duration_s();
        return score;
      });
      const double wall = batch.close();
      (batches++ == 0 ? stats->cold_s : stats->warm_s) += wall;
      stats->batch_s += wall;
      return scores;
    };
  }
  core::Trainer trainer{range, std::move(opt)};
  UnitResult r;
  const double cpu0 = cpu_seconds();
  Span span{"core.trainer_run", stats != nullptr};
  const core::TrainResult result = trainer.run();
  r.wall_s = span.close();
  r.cpu_s = cpu_seconds() - cpu0;
  if (stats != nullptr) stats->trainer_self_s += span.self_s();
  r.candidates = result.actions_evaluated;
  r.improvements = result.improvements;
  r.digest = tree_digest(result.tree);
  r.score = exact(result.score);
  return r;
}

void check(Ops& ops, const RunConfig& cfg, std::size_t variant,
           const UnitResult& r, const char* path) {
  const std::string tag = std::string{path} + " remy_train variant " +
                          std::to_string(variant);
  const std::string digest = reference(cfg, variant, "digest");
  const std::string score = reference(cfg, variant, "score");
  ops.check(!digest.empty() && r.digest == digest,
            tag + " digest " + r.digest + " != " + digest);
  ops.check(!score.empty() && r.score == score,
            tag + " score " + r.score + " != " + score);
  // A run that adopts no candidate never takes the improvement path, so
  // its digest would not depend on the candidates' scores.
  ops.check(r.improvements > 0, tag + " adopted no candidate");
}

}  // namespace

Outcome run_remy_train(const RunConfig& cfg) {
  Outcome out;
  const core::TrainerOptions shown = options_for(cfg, 0);
  out.host["threads"] = kThreads;
  out.host["shards"] = 1;
  out.host["specimens"] = shown.eval.num_specimens;
  out.host["sim_seconds_per_specimen"] = shown.eval.simulation_ms / 1000.0;

  if (!cfg.trace) {
    SetupSampler setup_sampler{cfg};
    EndToEndSeries series;
    UnitResult cycle;
    run_cycles(
        cfg,
        [&](std::size_t v) {
          out.ops.guard("remy_train unit", [&] {
            const UnitResult r = run_unit(cfg, v, nullptr);
            check(out.ops, cfg, v, r, "untraced");
            cycle.wall_s += r.wall_s;
            cycle.cpu_s += r.cpu_s;
            cycle.candidates += r.candidates;
          });
        },
        [&](double rss_mb, double scale) {
          series.add(cycle.wall_s, cycle.cpu_s,
                     static_cast<double>(cycle.candidates), rss_mb, scale);
          cycle = UnitResult{};
          setup_sampler.sample();
        });
    setup_sampler.top_up();
    series.report(out, setup_sampler);
    return out;
  }

  CycleSeries per_cycle;
  BatchStats stats;
  double plain_wall = 0.0;
  double traced_wall = 0.0;
  run_cycles(
      cfg,
      [&](std::size_t v) {
        out.ops.guard("remy_train traced unit", [&] {
          const UnitResult plain = run_unit(cfg, v, nullptr);
          check(out.ops, cfg, v, plain, "untraced");
          const UnitResult r = run_unit(cfg, v, &stats);
          check(out.ops, cfg, v, r, "traced");
          plain_wall += plain.wall_s;
          traced_wall += r.wall_s;
        });
      },
      [&](double /*rss_mb*/, double /*scale*/) {
        auto& m = per_cycle;
        m["core.candidates"].push_back(
            static_cast<double>(stats.evaluate_ms.size()));
        m["core.evaluate_ms.p50"].push_back(percentile(stats.evaluate_ms, 50));
        m["core.evaluate_ms.p90"].push_back(percentile(stats.evaluate_ms, 90));
        m["core.cold_batch_s"].push_back(stats.cold_s);
        m["core.warm_batch_s"].push_back(stats.warm_s);
        m["core.trainer_self_s"].push_back(stats.trainer_self_s);
        m["util.pool_busy_frac"].push_back(
            ratio(stats.evaluate_s, static_cast<double>(kThreads) * stats.batch_s));
        m["tracing.overhead_frac"].push_back(ratio(traced_wall, plain_wall));
        stats.evaluate_ms.clear();
        stats.evaluate_s = stats.batch_s = stats.cold_s = stats.warm_s = 0.0;
        stats.trainer_self_s = 0.0;
        plain_wall = traced_wall = 0.0;
      });
  out.cycles = per_cycle;
  for (const auto& [name, values] : per_cycle) out.metrics[name] = median(values);
  return out;
}

Metrics setup_remy_train(const RunConfig& cfg, std::size_t sample) {
  // The prior and Trainer construction: Evaluator specimen sampling and the
  // thread-pool start.
  const std::int64_t t0 = now_ns();
  const core::Trainer trainer{core::ConfigRange::paper_general(1.0),
                              options_for(cfg, sample % kVariants)};
  return {{"setup_s", static_cast<double>(now_ns() - t0) * 1e-9}};
}

util::Json record_remy_train(const RunConfig& cfg) {
  util::JsonObject out;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const UnitResult r = run_unit(cfg, v, nullptr);
    out[std::to_string(v)] =
        util::JsonObject{{"digest", r.digest}, {"score", r.score}};
  }
  return util::Json{std::move(out)};
}

}  // namespace perfbench
