// The determinism contract of the exec subsystem: HadasEngine::run and
// MultiDeviceEngine::run produce bit-identical results at any thread count,
// because per-task seeds derive from (seed, backbone hash) rather than
// scheduling order and all reductions happen serially in index order.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/hadas_engine.hpp"
#include "core/multi_device.hpp"
#include "hw/device.hpp"
#include "supernet/search_space.hpp"
#include "test_helpers.hpp"

namespace hadas {
namespace {

const supernet::SearchSpace& space() {
  static const auto s = supernet::SearchSpace::attentive_nas();
  return s;
}

core::HadasConfig exec_test_config(std::uint64_t seed, std::size_t threads) {
  core::HadasConfig config;
  config.outer_population = 6;
  config.outer_generations = 2;
  config.ioe_backbones_per_generation = 2;  // >1 so IOEs actually fan out
  config.ioe.nsga.population = 10;
  config.ioe.nsga.generations = 4;
  config.data = test::small_data();
  config.bank = test::small_bank();
  config.seed = seed;
  config.exec.threads = threads;
  return config;
}

void expect_identical(const core::HadasResult& a, const core::HadasResult& b) {
  EXPECT_EQ(a.outer_evaluations, b.outer_evaluations);
  EXPECT_EQ(a.inner_evaluations, b.inner_evaluations);
  EXPECT_EQ(a.static_front, b.static_front);
  ASSERT_EQ(a.backbones.size(), b.backbones.size());
  for (std::size_t i = 0; i < a.backbones.size(); ++i) {
    EXPECT_EQ(a.backbones[i].config, b.backbones[i].config);
    EXPECT_EQ(a.backbones[i].ioe_ran, b.backbones[i].ioe_ran);
    // Exact (bitwise) double equality is intentional: the parallel path
    // must not reorder any floating-point computation.
    EXPECT_EQ(a.backbones[i].static_eval.accuracy, b.backbones[i].static_eval.accuracy);
    EXPECT_EQ(a.backbones[i].static_eval.latency_s, b.backbones[i].static_eval.latency_s);
    EXPECT_EQ(a.backbones[i].static_eval.energy_j, b.backbones[i].static_eval.energy_j);
    EXPECT_EQ(a.backbones[i].inner_hv, b.backbones[i].inner_hv);
    EXPECT_EQ(a.backbones[i].inner_pareto.size(), b.backbones[i].inner_pareto.size());
  }
  ASSERT_EQ(a.final_pareto.size(), b.final_pareto.size());
  for (std::size_t i = 0; i < a.final_pareto.size(); ++i) {
    const core::FinalSolution& fa = a.final_pareto[i];
    const core::FinalSolution& fb = b.final_pareto[i];
    EXPECT_EQ(fa.backbone, fb.backbone);
    EXPECT_EQ(fa.placement, fb.placement);
    EXPECT_EQ(fa.setting, fb.setting);
    EXPECT_EQ(fa.dynamic.score_eq5, fb.dynamic.score_eq5);
    EXPECT_EQ(fa.dynamic.energy_gain, fb.dynamic.energy_gain);
    EXPECT_EQ(fa.dynamic.oracle_accuracy, fb.dynamic.oracle_accuracy);
    EXPECT_EQ(fa.dynamic.energy_per_sample_j, fb.dynamic.energy_per_sample_j);
    EXPECT_EQ(fa.dynamic.latency_per_sample_s, fb.dynamic.latency_per_sample_s);
  }
}

TEST(ExecDeterminism, ParallelRunMatchesSerialForTwoSeeds) {
  for (const std::uint64_t seed : {std::uint64_t{77}, std::uint64_t{2023}}) {
    core::HadasEngine serial(space(), hw::Target::kTx2PascalGpu,
                             exec_test_config(seed, 1));
    core::HadasEngine parallel(space(), hw::Target::kTx2PascalGpu,
                               exec_test_config(seed, 4));
    EXPECT_EQ(serial.threads(), 1u);
    EXPECT_EQ(parallel.threads(), 4u);
    const core::HadasResult a = serial.run();
    const core::HadasResult b = parallel.run();
    expect_identical(a, b);
  }
}

TEST(ExecDeterminism, WorkStealingPoolIdenticalAtOneTwoFourThreads) {
  // Pool workers claim tasks in whatever order they wake, so execution
  // order is scheduling-dependent; results must not be. Dispatcher merges
  // by index, so 1/2/4 threads must agree bitwise.
  core::HadasEngine one(space(), hw::Target::kTx2PascalGpu,
                        exec_test_config(31, 1));
  core::HadasEngine two(space(), hw::Target::kTx2PascalGpu,
                        exec_test_config(31, 2));
  core::HadasEngine four(space(), hw::Target::kTx2PascalGpu,
                         exec_test_config(31, 4));
  const core::HadasResult a = one.run();
  const core::HadasResult b = two.run();
  const core::HadasResult c = four.run();
  expect_identical(a, b);
  expect_identical(a, c);
}

TEST(ExecDeterminism, RepeatedParallelRunsAreIdentical) {
  core::HadasEngine one(space(), hw::Target::kTx2PascalGpu, exec_test_config(5, 4));
  core::HadasEngine two(space(), hw::Target::kTx2PascalGpu, exec_test_config(5, 4));
  expect_identical(one.run(), two.run());
}

TEST(ExecDeterminism, CostCacheHitsWithinSingleRun) {
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, exec_test_config(9, 2));
  (void)engine.run();
  // Accuracy surrogate + latency/energy measurement + exit-bank/cost-table
  // construction all analyze the same backbones: the shared cost-model memo
  // must have collapsed those repeats.
  EXPECT_GT(engine.cost_cache_stats().hits, 0u);
}

TEST(ExecDeterminism, StaticCacheHitsOnWarmStartedRun) {
  core::HadasEngine engine(space(), hw::Target::kTx2PascalGpu, exec_test_config(3, 2));
  const core::HadasResult first = engine.run();
  ASSERT_FALSE(first.final_pareto.empty());
  const auto before = engine.static_cache_stats();
  const core::WarmStart warm =
      core::warm_start_from_solutions(space(), first.final_pareto);
  const core::HadasResult resumed = engine.run(warm);
  const auto after = engine.static_cache_stats();
  // The resumed run re-visits genomes evaluated by the first run (same
  // outer seed -> same random fill), which are memo hits, not re-evals.
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GE(resumed.backbones.size(), first.final_pareto.empty() ? 0u : 1u);
}

TEST(ExecDeterminism, FaultyRunIsIdenticalAcrossThreadCounts) {
  // Fault outcomes are keyed by (fault seed, measurement identity, attempt),
  // never by scheduling order, so even a flaky-rig simulation is
  // bit-identical at any thread count.
  auto faulty_config = [](std::size_t threads) {
    core::HadasConfig config = exec_test_config(11, threads);
    config.robust.faults.transient_failure_rate = 0.05;
    config.robust.faults.nan_rate = 0.02;
    config.robust.faults.noise_sigma = 0.01;
    return config;
  };
  core::HadasEngine serial(space(), hw::Target::kTx2PascalGpu, faulty_config(1));
  core::HadasEngine parallel(space(), hw::Target::kTx2PascalGpu, faulty_config(4));
  const core::HadasResult a = serial.run();
  const core::HadasResult b = parallel.run();
  expect_identical(a, b);
  // The fault layer really was in play, identically on both sides.
  EXPECT_GT(a.device_health.transient_failures, 0u);
  EXPECT_EQ(a.device_health.transient_failures,
            b.device_health.transient_failures);
  EXPECT_EQ(a.device_health.quarantined, b.device_health.quarantined);
  EXPECT_EQ(a.device_health.retries, b.device_health.retries);
}

TEST(ExecDeterminism, MultiDeviceParallelMatchesSerial) {
  core::MultiDeviceConfig base;
  base.targets = {hw::Target::kTx2PascalGpu, hw::Target::kAgxVoltaGpu};
  base.outer_population = 6;
  base.outer_generations = 2;
  base.inner_backbones = 2;
  base.inner_nsga.population = 10;
  base.inner_nsga.generations = 4;
  base.data = test::small_data();
  base.bank = test::small_bank();

  core::MultiDeviceConfig serial_config = base;
  serial_config.exec.threads = 1;
  core::MultiDeviceConfig parallel_config = base;
  parallel_config.exec.threads = 4;

  core::MultiDeviceEngine serial(space(), serial_config);
  core::MultiDeviceEngine parallel(space(), parallel_config);
  const core::MultiDeviceResult a = serial.run();
  const core::MultiDeviceResult b = parallel.run();

  EXPECT_EQ(a.static_evaluations, b.static_evaluations);
  EXPECT_EQ(a.inner_evaluations, b.inner_evaluations);
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].backbone, b.pareto[i].backbone);
    EXPECT_EQ(a.pareto[i].placement, b.pareto[i].placement);
    EXPECT_EQ(a.pareto[i].settings, b.pareto[i].settings);
    EXPECT_EQ(a.pareto[i].worst_gain, b.pareto[i].worst_gain);
    EXPECT_EQ(a.pareto[i].mean_gain, b.pareto[i].mean_gain);
    EXPECT_EQ(a.pareto[i].oracle_accuracy, b.pareto[i].oracle_accuracy);
  }
}

}  // namespace
}  // namespace hadas
