// search-serial / search-parallel: cold HadasEngine::run searches of the
// bench_parallel_scaling search shape on tx2-gpu, with smaller exit-head
// training data so a group of four fits in one run. At one thread the dispatcher
// falls back to serial and exit-head training (nn) is nearly all of the
// time; at several threads the work-stealing pool, the S(b) memo under
// contention and the durable checkpoint chain (written every generation)
// join in. Both thread counts must produce the same front bit for bit, which
// reference.json (recorded at one thread) checks.

#include <filesystem>

#include "bench.hpp"
#include "core/hadas_engine.hpp"
#include "core/pareto.hpp"
#include "obs/metrics.hpp"
#include "supernet/search_space.hpp"

namespace perfbench {
namespace {

using namespace hadas;

constexpr hw::Target kTarget = hw::Target::kTx2PascalGpu;

/// Cold searches per timed group. Instances differ in how deep the explored
/// backbones are, so one search's exit-bank work varies by several percent
/// from seed to seed; a group of distinct instances averages that out.
constexpr std::size_t kSearchesPerGroup = 4;

core::HadasConfig search_config(std::uint64_t instance, std::size_t threads) {
  core::HadasConfig config;
  config.outer_population = 12;
  config.outer_generations = 4;
  config.ioe_backbones_per_generation = 4;
  config.ioe.nsga.population = 20;
  config.ioe.nsga.generations = 10;
  config.data.train_size = 500;
  config.data.val_size = 500;
  config.data.test_size = 500;
  config.bank.train.epochs = 4;
  config.seed = 20230417 + instance;
  config.exec.threads = threads;
  return config;
}

double front_hypervolume(const std::vector<core::FinalSolution>& front) {
  std::vector<core::Objectives> points;
  for (const core::FinalSolution& sol : front)
    points.push_back({sol.dynamic.energy_gain, sol.dynamic.oracle_accuracy});
  return core::hypervolume(points, {0.0, 0.0});
}

/// Same fields as bench_parallel_scaling's thread-determinism fingerprint.
std::string front_fingerprint(const core::HadasResult& result) {
  Fingerprint fp;
  fp.mix(result.final_pareto.size());
  for (const core::FinalSolution& sol : result.final_pareto) {
    for (std::uint8_t bit : sol.placement.mask()) fp.mix(bit);
    fp.mix(sol.setting.core_idx);
    fp.mix(sol.setting.emc_idx);
    fp.mix_double(sol.dynamic.score_eq5);
    fp.mix_double(sol.dynamic.energy_gain);
    fp.mix_double(sol.dynamic.oracle_accuracy);
    fp.mix_double(sol.static_eval.latency_s);
    fp.mix_double(sol.static_eval.energy_j);
  }
  for (std::size_t idx : result.static_front) fp.mix(idx);
  return fp.hex();
}

/// The exact work of one search: must repeat bit for bit run to run.
Json work_record(const core::HadasResult& result,
                 const core::HadasConfig& config) {
  std::vector<std::size_t> bank_layers;
  std::size_t ioe_runs = 0, dynn_evals = 0;
  for (const core::BackboneOutcome& b : result.backbones) {
    if (!b.ioe_ran) continue;
    ++ioe_runs;
    bank_layers.push_back(static_cast<std::size_t>(b.config.total_layers()));
    dynn_evals += b.inner_history.size();
  }
  const NnWork nn = nn_work(bank_layers, config.data, config.bank);
  Json work;
  work["front"] = front_fingerprint(result);
  work["front_hv"] = exact(front_hypervolume(result.final_pareto));
  work["outer_evals"] = result.outer_evaluations;
  work["inner_evals"] = result.inner_evaluations;
  work["ioe_runs"] = ioe_runs;
  work["dynn_evals"] = dynn_evals;
  work["heads_trained"] = nn.heads;
  work["sgd_steps"] = nn.sgd_steps;
  return work;
}

/// Wall-clock marks and checkpoint sizes seen by the on_generation hook.
struct GenerationLog {
  Clock::time_point start;
  std::vector<double> marks_s;
  std::vector<double> checkpoint_bytes;
};

}  // namespace

void run_search(const Options& options, std::size_t threads,
                const Json* reference, Outcome& out) {
  const supernet::SearchSpace space = supernet::SearchSpace::attentive_nas();
  const std::string checkpoint_dir = options.scratch_dir + "/checkpoints";
  GenerationLog log;
  auto make_config = [&](std::uint64_t instance) {
    core::HadasConfig config = search_config(instance, threads);
    if (threads > 1) config.checkpoint_path = checkpoint_dir + "/search.ckpt";
    config.on_generation = [&log, path = config.checkpoint_path](std::size_t) {
      log.marks_s.push_back(seconds_since(log.start));
      if (!path.empty())
        log.checkpoint_bytes.push_back(
            static_cast<double>(std::filesystem::file_size(path)));
    };
    return config;
  };

  std::vector<double> setup_s;
  // Set-up of one cold search: an empty checkpoint directory (a stale chain
  // would be resumed) and a fresh engine, so no exit bank is cached.
  auto setup = [&](std::uint64_t instance) {
    const Clock::time_point t0 = Clock::now();
    fresh_dir(checkpoint_dir);
    auto engine =
        std::make_unique<core::HadasEngine>(space, kTarget, make_config(instance));
    setup_s.push_back(seconds_since(t0));
    return engine;
  };
  std::map<std::uint64_t, Json> first;
  auto check = [&](std::uint64_t instance, const core::HadasResult& result,
                   const core::HadasEngine& engine) {
    const Json work = work_record(result, engine.config());
    const Json* expected = reference_for(reference, instance);
    const bool repeats = first.emplace(instance, work).first->second == work;
    const bool matches = expected == nullptr || work == *expected;
    out.operation(repeats && matches,
                  "search of instance " + std::to_string(instance) +
                      (!repeats ? ": work drifted within the run: "
                                : ": work differs from reference.json: ") +
                      work.dump());
    out.work[std::to_string(instance)] = work;
    return work;
  };
  auto search = [&](core::HadasEngine& engine, double& seconds) {
    log = GenerationLog{};
    log.start = Clock::now();
    core::HadasResult result = engine.run();
    seconds = seconds_since(log.start);
    return result;
  };

  if (options.record) {
    double seconds = 0.0;
    auto engine = setup(options.instance());
    check(options.instance(), search(*engine, seconds), *engine);
    const Json work = out.work.at(std::to_string(options.instance()));
    out.work = work;
    return;
  }

  if (!options.trace) {
    // The timed phase is a group of cold searches on distinct instances,
    // repeated while another group fits in --seconds; run_s is the median
    // group's wall seconds per search.
    std::vector<double> group_s;
    double hv = 0.0;
    while (another_fits(group_s, options.seconds)) {
      double group = 0.0;
      hv = 0.0;
      for (std::size_t j = 0; j < kSearchesPerGroup; ++j) {
        const std::uint64_t instance = options.instance(j, kSearchesPerGroup);
        if (threads == 1) rotate_cpu(j);
        auto engine = setup(instance);
        double seconds = 0.0;
        const core::HadasResult result = search(*engine, seconds);
        group += seconds;
        hv += front_hypervolume(result.final_pareto);
        check(instance, result, *engine);
      }
      group_s.push_back(group);
    }
    while (setup_s.size() < 9) setup(options.instance());  // a steadier median
    const double run = median(group_s) / static_cast<double>(kSearchesPerGroup);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("run_s", run, "s");
    out.metric("front_hv", hv, "hv");
    out.metric("requests_per_s", 1.0 / run, "1/s");
    out.detail["group_s_samples"] =
        Json(Json::Array(group_s.begin(), group_s.end()));
    out.detail["setup_s_samples"] =
        Json(Json::Array(setup_s.begin(), setup_s.end()));
    return;
  }

  // --- Traced run on the group's first instance, kTracedPairs rounds of:
  // an untraced search, a traced search, and a serial replay of the traced
  // search's layer calls on a fresh engine (each round on one CPU; medians
  // over the rounds).
  //
  // The replay sends every explored backbone through
  // StaticEvaluator::evaluate and every IOE backbone through exit_bank
  // (trains), run_ioe_with (bank now cached) and its distinct history
  // through InnerEngine::evaluate. The replayed IOEs use the engine's
  // IoeConfig without the warm-start seed pool the search derived per
  // generation, so they explore other candidates within the same budget.
  const std::uint64_t instance = options.instance(0, kSearchesPerGroup);
  const core::HadasConfig config = make_config(instance);
  core::HadasConfig replay_config = config;
  replay_config.checkpoint_path.clear();
  replay_config.on_generation = nullptr;
  replay_config.exec.threads = 1;
  Recorder& recorder = Recorder::global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::vector<double> untraced, traced, static_r, nn_r, ioe_r, eval_r;
  std::unique_ptr<core::HadasEngine> engine;
  core::HadasResult result;
  std::uint64_t tasks = 0;
  double queue_peak = 0.0;
  std::size_t evals = 0, mismatches = 0;
  for (int k = 0; k < kTracedPairs; ++k) {
    if (threads == 1) rotate_cpu(static_cast<std::size_t>(k));
    double seconds = 0.0;
    engine = setup(instance);
    check(instance, search(*engine, seconds), *engine);
    untraced.push_back(seconds);

    engine = setup(instance);
    registry.gauge("exec.queue_depth_peak").reset();
    const std::uint64_t tasks0 = counter_value("exec.tasks_total");
    recorder.set_on(true);
    recorder.with_program_spans([&] {
      double span_s = 0.0;
      LayerSpan span("search.run", span_s);
      result = search(*engine, seconds);
    });
    tasks = counter_value("exec.tasks_total") - tasks0;
    queue_peak = registry.gauge("exec.queue_depth_peak").value();
    traced.push_back(seconds);
    check(instance, result, *engine);

    const core::HadasEngine replay(space, kTarget, replay_config);
    double static_s = 0.0, nn_s = 0.0, ioe_s = 0.0, eval_s = 0.0, replay_s = 0.0;
    evals = 0;
    {
      LayerSpan root("replay", replay_s);
      for (const core::BackboneOutcome& b : result.backbones) {
        LayerSpan span("core.static_eval", static_s);
        const core::StaticEval eval = replay.static_evaluator().evaluate(b.config);
        mismatches += eval.energy_j != b.static_eval.energy_j;
      }
      for (const core::BackboneOutcome& b : result.backbones) {
        if (!b.ioe_ran) continue;
        {
          LayerSpan span("nn.train", nn_s);
          replay.exit_bank(b.config);
          replay.cost_table(b.config);
        }
        {
          LayerSpan span("core.ioe", ioe_s);
          replay.run_ioe_with(b.config, replay_config.ioe);
        }
        const core::InnerEngine inner(replay.exit_bank(b.config),
                                      replay.cost_table(b.config),
                                      replay_config.ioe);
        LayerSpan span("dynn.eval", eval_s);
        for (const core::InnerSolution& h : b.inner_history) {
          const core::InnerSolution again = inner.evaluate(h.placement, h.setting);
          mismatches += again.metrics.score_eq5 != h.metrics.score_eq5;
        }
        evals += b.inner_history.size();
      }
    }
    recorder.set_on(false);
    static_r.push_back(static_s);
    nn_r.push_back(nn_s);
    ioe_r.push_back(ioe_s);
    eval_r.push_back(eval_s);
  }
  out.operation(mismatches == 0,
                "replayed layer calls disagree with the search in " +
                    std::to_string(mismatches) + " evaluations");
  const double untraced_s = median(untraced);
  const double traced_s = median(traced);
  const double static_s = median(static_r), nn_s = median(nn_r),
               ioe_s = median(ioe_r), eval_s = median(eval_r);
  const Json work = out.work.at(std::to_string(instance));
  std::vector<double> generation_s;
  for (std::size_t g = 0; g < log.marks_s.size(); ++g)
    generation_s.push_back(log.marks_s[g] - (g == 0 ? 0.0 : log.marks_s[g - 1]));
  const std::vector<double> checkpoint_bytes = log.checkpoint_bytes;

  const Json trace = recorder.to_json();
  std::vector<std::size_t> bank_layers;
  for (const core::BackboneOutcome& b : result.backbones)
    if (b.ioe_ran)
      bank_layers.push_back(static_cast<std::size_t>(b.config.total_layers()));
  const NnWork nn = nn_work(bank_layers, config.data, config.bank);

  const double layers_s = static_s + nn_s + ioe_s;
  const double lanes = static_cast<double>(engine->threads());

  out.metric("nn.train_s", nn_s, "s");
  out.metric("nn.heads_trained", static_cast<double>(nn.heads), "count");
  out.metric("nn.sgd_steps", static_cast<double>(nn.sgd_steps), "count");
  out.metric("nn.gemm_gflop", nn.gemm_flop * 1e-9, "GFLOP");
  out.metric("nn.gflop_per_s", nn.gemm_flop * 1e-9 / nn_s, "GFLOP/s");
  out.metric("dynn.eval_s", eval_s, "s");
  out.metric("dynn.evals", static_cast<double>(evals), "count");
  out.metric("dynn.ns_per_eval", eval_s * 1e9 / static_cast<double>(evals), "ns");
  out.metric("core.ioe_s", ioe_s, "s");
  out.metric("core.nsga2_s", ioe_s - eval_s, "s");
  out.metric("core.static_eval_s", static_s, "s");
  out.metric("core.outer_evals", work.at("outer_evals").as_number(), "count");
  out.metric("core.inner_evals", work.at("inner_evals").as_number(), "count");
  out.metric("core.ioe_runs", work.at("ioe_runs").as_number(), "count");
  // The program's own spans, per traced search.
  const double per_search = 1.0 / static_cast<double>(traced.size());
  out.metric("core.static_evals_s", span_seconds(trace, "static_evals") * per_search,
             "s");
  out.metric("core.ioe_dispatch_s", span_seconds(trace, "ioe_dispatch") * per_search,
             "s");
  out.metric("core.generation_s_p50", median(generation_s), "s");
  out.metric("core.generation_s_max", quantile(generation_s, 1.0), "s");
  out.metric("core.unattributed_s", lanes * untraced_s - layers_s, "s");
  out.metric("exec.parallel_efficiency", layers_s / (lanes * untraced_s), "ratio");
  out.metric("exec.tasks", static_cast<double>(tasks), "count");
  out.metric("exec.queue_depth_peak", queue_peak, "count");
  out.metric("exec.static_cache_hit_rate", engine->static_cache_stats().hit_rate(),
             "ratio");
  out.metric("exec.cost_cache_hit_rate", engine->cost_cache_stats().hit_rate(),
             "ratio");
  double bytes_written = 0.0;
  for (double b : checkpoint_bytes) bytes_written += b;
  out.metric("durable.checkpoint_s", span_seconds(trace, "checkpoint") * per_search,
             "s");
  out.metric("durable.bytes_written", bytes_written, "B");
  out.metric("durable.writes", static_cast<double>(checkpoint_bytes.size()),
             "count");
  out.metric("durable.checkpoint_bytes",
             checkpoint_bytes.empty() ? 0.0 : checkpoint_bytes.back(), "B");
  out.metric("obs.trace_overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
  out.metric("obs.trace_events", static_cast<double>(recorder.size()), "count");

  out.detail["run_s_untraced"] = Json(Json::Array(untraced.begin(), untraced.end()));
  out.detail["run_s_traced"] = Json(Json::Array(traced.begin(), traced.end()));
  out.detail["threads"] = engine->threads();
  out.detail["nn_train_s_rounds"] = Json(Json::Array(nn_r.begin(), nn_r.end()));
  out.detail["breakdown"] = span_breakdown(trace);
  write_trace(trace, options);
}

}  // namespace perfbench
