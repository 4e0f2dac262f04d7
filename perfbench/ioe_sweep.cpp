// ioe-sweep: the "optimised baselines" path of Fig. 5/6 and Table III.
// Set-up trains the exit banks and cost tables of the seven AttentiveNAS
// baselines a0-a6; the timed phase then runs the paper-budget IOE
// (population 50 x 70 generations) on every baseline for a seeded list of
// NSGA seeds at one thread. No exit head is trained in the timed phase, so
// it measures the NSGA-II machinery (FrontLevels, the arena, EvalBatch) and
// D(x, f | b) evaluation alone.

#include "bench.hpp"
#include "core/hadas_engine.hpp"
#include "core/pareto.hpp"
#include "supernet/baselines.hpp"
#include "supernet/search_space.hpp"

namespace perfbench {
namespace {

using namespace hadas;

constexpr std::size_t kSeedsPerPass = 10;

core::HadasConfig sweep_config() {
  core::HadasConfig config;
  config.data.train_size = 500;
  config.data.val_size = 500;
  config.data.test_size = 500;
  config.bank.train.epochs = 4;
  config.exec.threads = 1;
  return config;
}

/// NSGA seeds of one instance; every pass runs the same list.
std::vector<std::uint64_t> nsga_seeds(std::uint64_t instance) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t j = 0; j < kSeedsPerPass; ++j)
    seeds.push_back(1000 * (instance + 1) + j);
  return seeds;
}

double inner_hypervolume(const std::vector<core::InnerSolution>& front) {
  std::vector<core::Objectives> points;
  for (const core::InnerSolution& sol : front)
    points.push_back({sol.metrics.energy_gain, sol.metrics.oracle_accuracy});
  return core::hypervolume(points, {0.0, 0.0});
}

std::string ioe_fingerprint(const core::IoeResult& result) {
  Fingerprint fp;
  fp.mix(result.evaluations);
  fp.mix(result.history.size());
  for (const core::InnerSolution& sol : result.pareto) {
    for (std::uint8_t bit : sol.placement.mask()) fp.mix(bit);
    fp.mix(sol.setting.core_idx);
    fp.mix(sol.setting.emc_idx);
    fp.mix_double(sol.metrics.score_eq5);
    fp.mix_double(sol.metrics.energy_gain);
    fp.mix_double(sol.metrics.oracle_accuracy);
  }
  return fp.hex();
}

/// The trained baselines: what set-up builds and the timed phase reuses.
struct Sweep {
  std::unique_ptr<core::HadasEngine> engine;
  std::vector<supernet::Baseline> baselines;
};

}  // namespace

void run_ioe_sweep(const Options& options, const Json* section,
                   Outcome& out) {
  const Json* reference = reference_for(section, options.instance());
  const supernet::SearchSpace space = supernet::SearchSpace::attentive_nas();
  const core::HadasConfig config = sweep_config();
  const std::vector<std::uint64_t> seeds = nsga_seeds(options.instance());

  std::vector<double> setup_s;
  double nn_s = 0.0, static_s = 0.0;
  auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    Sweep sweep;
    sweep.engine = std::make_unique<core::HadasEngine>(
        space, hw::Target::kTx2PascalGpu, config);
    sweep.baselines = supernet::attentive_nas_baselines();
    for (const supernet::Baseline& b : sweep.baselines) {
      {
        LayerSpan span("core.static_eval", static_s);
        sweep.engine->static_evaluator().evaluate(b.config);
      }
      LayerSpan span("nn.train", nn_s);
      sweep.engine->exit_bank(b.config);
      sweep.engine->cost_table(b.config);
    }
    setup_s.push_back(seconds_since(t0));
    return sweep;
  };

  // One pass: every (seed, baseline) IOE, each checked against the first
  // pass and against reference.json. Returns the work record of the pass.
  Json first;
  double ioe_s = 0.0, front_hv = 0.0;
  std::vector<core::IoeResult> last;
  auto pass = [&](const Sweep& sweep) {
    std::vector<core::IoeResult> results;
    for (const std::uint64_t seed : seeds)
      for (const supernet::Baseline& b : sweep.baselines) {
        core::IoeConfig ioe;  // the paper budget: 50 x 70 = 3500 evaluations
        ioe.nsga.seed = seed;
        LayerSpan span("core.ioe", ioe_s);
        results.push_back(sweep.engine->run_ioe_with(b.config, ioe));
      }
    Json::Array fronts;
    double hv = 0.0;
    std::size_t inner_evals = 0, dynn_evals = 0;
    for (const core::IoeResult& r : results) {
      fronts.push_back(Json(ioe_fingerprint(r)));
      hv += inner_hypervolume(r.pareto);
      inner_evals += r.evaluations;
      dynn_evals += r.history.size();
    }
    std::vector<std::size_t> bank_layers;
    for (const supernet::Baseline& b : sweep.baselines)
      bank_layers.push_back(static_cast<std::size_t>(b.config.total_layers()));
    const NnWork nn = nn_work(bank_layers, config.data, config.bank);
    Json work;
    work["fronts"] = Json(fronts);
    work["front_hv"] = exact(hv);
    work["inner_evals"] = inner_evals;
    work["dynn_evals"] = dynn_evals;
    work["ioe_runs"] = results.size();
    work["heads_trained"] = nn.heads;
    work["sgd_steps"] = nn.sgd_steps;
    if (first.is_null()) first = work;
    for (std::size_t i = 0; i < fronts.size(); ++i) {
      const bool repeats = fronts[i] == first.at("fronts").at(i);
      const bool matches =
          reference == nullptr || fronts[i] == reference->at("fronts").at(i);
      out.operation(repeats && matches,
                    "IOE " + std::to_string(i) + " front " +
                        fronts[i].as_string() +
                        (!repeats ? " drifted within the run"
                                  : " differs from reference.json"));
    }
    const bool counts_ok =
        work == first && (reference == nullptr || work == *reference);
    out.operation(counts_ok, "sweep work record differs: " + work.dump());
    out.work = work;
    front_hv = hv;
    last = std::move(results);
  };

  if (options.record) {
    pass(setup());
    return;
  }

  if (!options.trace) {
    Sweep sweep;
    for (std::size_t k = 0; k < 3; ++k) {  // a steadier set-up median
      rotate_cpu(k);
      sweep = setup();
    }
    std::vector<double> run_s;
    while (another_fits(run_s, options.seconds)) {
      rotate_cpu(run_s.size());
      const Clock::time_point t0 = Clock::now();
      pass(sweep);
      run_s.push_back(seconds_since(t0));
    }
    const double run = median(run_s);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("run_s", run, "s");
    out.metric("front_hv", front_hv, "hv");
    out.metric("requests_per_s",
               out.work.at("ioe_runs").as_number() / run, "1/s");
    out.detail["run_s_samples"] = Json(Json::Array(run_s.begin(), run_s.end()));
    out.detail["setup_s_samples"] =
        Json(Json::Array(setup_s.begin(), setup_s.end()));
    return;
  }

  // --- Traced run: traced set-up, untraced and traced passes alternating
  // (kTracedPairs each, medians), then each IOE's distinct history replayed through
  // InnerEngine::evaluate. ---
  Recorder& recorder = Recorder::global();
  recorder.set_on(true);
  nn_s = static_s = 0.0;
  const Sweep sweep = setup();
  recorder.set_on(false);
  std::vector<double> untraced, traced, ioe_seconds;
  for (int k = 0; k < kTracedPairs; ++k) {
    rotate_cpu(static_cast<std::size_t>(k));
    const Clock::time_point t0 = Clock::now();
    pass(sweep);
    untraced.push_back(seconds_since(t0));
    ioe_s = 0.0;
    double seconds = 0.0;
    recorder.set_on(true);
    recorder.with_program_spans([&] {
      LayerSpan span("sweep.pass", seconds);
      pass(sweep);
    });
    recorder.set_on(false);
    traced.push_back(seconds);
    ioe_seconds.push_back(ioe_s);
  }
  const double untraced_s = median(untraced);
  const double traced_s = median(traced);
  ioe_s = median(ioe_seconds);
  recorder.set_on(true);
  double eval_s = 0.0;
  std::size_t evals = 0, mismatches = 0;
  {
    std::size_t k = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s)
      for (const supernet::Baseline& b : sweep.baselines) {
        const core::InnerEngine inner(sweep.engine->exit_bank(b.config),
                                      sweep.engine->cost_table(b.config),
                                      core::IoeConfig{});
        LayerSpan span("dynn.eval", eval_s);
        for (const core::InnerSolution& h : last[k].history) {
          const core::InnerSolution again = inner.evaluate(h.placement, h.setting);
          mismatches += again.metrics.score_eq5 != h.metrics.score_eq5;
        }
        evals += last[k].history.size();
        ++k;
      }
  }
  recorder.set_on(false);
  out.operation(mismatches == 0,
                "replayed evaluations disagree with the IOE in " +
                    std::to_string(mismatches) + " candidates");

  const Json trace = recorder.to_json();
  const Json& work = out.work;
  std::vector<std::size_t> bank_layers;
  for (const supernet::Baseline& b : sweep.baselines)
    bank_layers.push_back(static_cast<std::size_t>(b.config.total_layers()));
  const NnWork nn = nn_work(bank_layers, config.data, config.bank);

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
  out.metric("core.outer_evals", static_cast<double>(sweep.baselines.size()),
             "count");
  out.metric("core.inner_evals", work.at("inner_evals").as_number(), "count");
  out.metric("core.ioe_runs", work.at("ioe_runs").as_number(), "count");
  out.metric("core.unattributed_s", untraced_s - ioe_s, "s");
  out.metric("exec.parallel_efficiency", ioe_s / untraced_s, "ratio");
  out.metric("obs.trace_overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
  out.metric("obs.trace_events", static_cast<double>(recorder.size()), "count");

  out.detail["run_s_untraced"] = Json(Json::Array(untraced.begin(), untraced.end()));
  out.detail["run_s_traced"] = Json(Json::Array(traced.begin(), traced.end()));
  out.detail["breakdown"] = span_breakdown(trace);
  write_trace(trace, options);
}

}  // namespace perfbench
