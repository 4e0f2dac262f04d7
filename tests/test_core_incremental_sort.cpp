// Property tests for the fast inner-loop machinery: the incrementally
// maintained non-domination levels (FrontLevels) against the from-scratch
// Deb sort, NSGA-II on FrontLevels against a full-sort reference NSGA-II,
// the warm-start seed pool, and the single-draw reset mutation.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/hadas_engine.hpp"
#include "core/nsga2.hpp"
#include "core/pareto.hpp"
#include "hw/device.hpp"
#include "util/rng.hpp"

namespace hadas {
namespace {

using core::FrontLevels;
using core::IntGenome;
using core::Objectives;

/// Random population with deliberate duplicates: values come from a small
/// integer grid, so equal points, dominated chains, and incomparable pairs
/// all occur frequently.
std::vector<Objectives> random_population(util::Rng& rng, std::size_t n,
                                          std::size_t dims,
                                          std::int64_t grid) {
  std::vector<Objectives> points(n);
  for (auto& p : points) {
    p.resize(dims);
    for (double& v : p)
      v = static_cast<double>(rng.uniform_int(0, grid));
  }
  return points;
}

/// Levels built by inserting points one at a time, in index order.
FrontLevels insert_all(const std::vector<Objectives>& points) {
  FrontLevels levels;
  for (std::size_t i = 0; i < points.size(); ++i) levels.insert(points, i);
  return levels;
}

/// The 1000-population property: building the levels by inserting each point
/// one at a time must equal the from-scratch Deb sort, for random
/// populations with duplicates and for degenerate shapes.
TEST(IncrementalSort, MatchesFullSortOnRandomPopulations) {
  util::Rng rng(1234);
  for (int round = 0; round < 1000; ++round) {
    const std::size_t n = 2 + rng.uniform_index(30);
    const std::size_t dims = 2 + rng.uniform_index(2);  // 2-D or 3-D
    const std::int64_t grid = 1 + static_cast<std::int64_t>(rng.uniform_index(6));
    const auto points = random_population(rng, n, dims, grid);

    ASSERT_EQ(insert_all(points).fronts(), core::non_dominated_sort(points))
        << "round " << round << ": incremental != full sort";
  }
}

TEST(IncrementalSort, SingleFrontAntichain) {
  // (i, -i) points are mutually incomparable: one front holding everything.
  std::vector<Objectives> points;
  for (std::size_t i = 0; i < 64; ++i)
    points.push_back({static_cast<double>(i), -static_cast<double>(i)});
  const FrontLevels levels = insert_all(points);
  ASSERT_EQ(levels.fronts().size(), 1u);
  EXPECT_EQ(levels.fronts()[0].size(), 64u);
  EXPECT_EQ(levels.fronts(), core::non_dominated_sort(points));
}

TEST(IncrementalSort, TotallyOrderedChainAscendingAndDescending) {
  // A dominance chain inserted worst-first forces the maximal number of
  // displacement cascades; best-first inserts each point into a new front 0.
  for (const bool ascending : {true, false}) {
    std::vector<Objectives> points;
    for (std::size_t i = 0; i < 40; ++i) {
      const double v = static_cast<double>(ascending ? i : 40 - i);
      points.push_back({v, v});
    }
    const FrontLevels levels = insert_all(points);
    ASSERT_EQ(levels.fronts().size(), 40u);
    for (const auto& front : levels.fronts()) EXPECT_EQ(front.size(), 1u);
    EXPECT_EQ(levels.fronts(), core::non_dominated_sort(points));
  }
}

TEST(IncrementalSort, AllDuplicatePointsShareOneFront) {
  // Equal points do not dominate each other (no strict improvement).
  const std::vector<Objectives> points(32, Objectives{1.0, 2.0, 3.0});
  const FrontLevels levels = insert_all(points);
  ASSERT_EQ(levels.fronts().size(), 1u);
  EXPECT_EQ(levels.fronts()[0].size(), 32u);
  EXPECT_EQ(levels.fronts(), core::non_dominated_sort(points));
}

TEST(IncrementalSort, RebuildEqualsIncrementalConstruction) {
  util::Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    const auto points = random_population(rng, 25, 2, 4);
    FrontLevels rebuilt;
    rebuilt.rebuild(points);
    EXPECT_EQ(rebuilt.fronts(), insert_all(points).fronts());
  }
}

TEST(IncrementalSort, RankOfAgreesWithFrontMembership) {
  util::Rng rng(99);
  const auto points = random_population(rng, 50, 3, 5);
  FrontLevels levels;
  levels.rebuild(points);
  for (std::size_t f = 0; f < levels.fronts().size(); ++f)
    for (std::size_t idx : levels.fronts()[f]) EXPECT_EQ(levels.rank_of(idx), f);
}

/// Front-prefix-closed truncation (whole fronts plus any subset of the cut
/// front — what NSGA-II elitist selection produces) must leave the surviving
/// levels equal to a full re-sort of the survivors.
TEST(IncrementalSort, SelectMatchesFullSortOfSurvivors) {
  util::Rng rng(4321);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 8 + rng.uniform_index(30);
    const auto points = random_population(rng, n, 2, 5);
    FrontLevels levels;
    levels.rebuild(points);

    const std::size_t target = 1 + rng.uniform_index(n - 1);
    std::vector<std::size_t> keep;
    for (const auto& front : levels.fronts()) {
      if (keep.size() + front.size() <= target) {
        keep.insert(keep.end(), front.begin(), front.end());
      } else {
        // Random subset of the cut front, ascending (canonical order).
        auto cut = rng.sample_without_replacement(front.size(),
                                                 target - keep.size());
        std::sort(cut.begin(), cut.end());
        for (std::size_t pos : cut) keep.push_back(front[pos]);
      }
      if (keep.size() == target) break;
    }

    std::vector<Objectives> survivors;
    for (std::size_t idx : keep) survivors.push_back(points[idx]);
    levels.select(keep);
    ASSERT_EQ(survivors.size(), target);
    ASSERT_EQ(levels.size(), target);
    EXPECT_EQ(levels.fronts(), core::non_dominated_sort(survivors))
        << "round " << round << ": survivors diverged from full sort";
  }
}

/// reset_mutation with per-gene probability 1: the new value must never
/// equal the old one, must stay in range, and must be uniform over the
/// card-1 alternatives (the draw-and-shift construction is exact, not
/// approximate — but we smoke-test the distribution anyway).
TEST(ResetMutation, ExcludesCurrentValueAndIsUniform) {
  util::Rng rng(555);
  const std::vector<std::size_t> card = {5};
  std::vector<std::size_t> counts(5, 0);
  const std::size_t draws = 20000;
  for (std::size_t i = 0; i < draws; ++i) {
    IntGenome g = {2};
    core::reset_mutation(g, card, 1.0, rng);
    ASSERT_GE(g[0], 0);
    ASSERT_LT(g[0], 5);
    ASSERT_NE(g[0], 2) << "mutation returned the unchanged value";
    ++counts[static_cast<std::size_t>(g[0])];
  }
  EXPECT_EQ(counts[2], 0u);
  const double expected = static_cast<double>(draws) / 4.0;
  for (std::size_t v : {0u, 1u, 3u, 4u})
    EXPECT_NEAR(static_cast<double>(counts[v]), expected, expected * 0.05);
}

TEST(ResetMutation, CardinalityOneGeneIsNeverTouched) {
  util::Rng rng(7);
  IntGenome g = {0, 3};
  core::reset_mutation(g, {1, 7}, 1.0, rng);
  EXPECT_EQ(g[0], 0);  // no alternative value exists
  EXPECT_NE(g[1], 3);
}

/// Warm-start seed pool: round-robin across backbones by inner-front depth,
/// deduplicated, clamped to the target genome shape.
class SeedPoolTest : public ::testing::Test {
 protected:
  static core::BackboneOutcome outcome(std::size_t total_layers,
                                       const std::vector<std::vector<std::size_t>>& fronts,
                                       bool ioe_ran = true) {
    core::BackboneOutcome out;
    out.ioe_ran = ioe_ran;
    for (const auto& exits : fronts) {
      core::InnerSolution sol{dynn::ExitPlacement(total_layers, exits),
                              hw::DvfsSetting{1, 1},
                              {},
                              {0.0, 0.0, 0.0}};
      out.inner_pareto.push_back(std::move(sol));
    }
    return out;
  }

  const hw::DeviceSpec device = hw::make_device(hw::Target::kTx2PascalGpu);
};

TEST_F(SeedPoolTest, RoundRobinAcrossBackbonesThenDepth) {
  // Two backbones of 12 layers (7 eligible positions, layers 4..10).
  std::vector<core::BackboneOutcome> outcomes = {
      outcome(12, {{4}, {5}}), outcome(12, {{6}, {7}})};
  const auto seeds = core::ioe_seed_pool(outcomes, 7, device, 8);
  ASSERT_EQ(seeds.size(), 4u);
  // Depth 0 of each backbone first, then depth 1 of each.
  EXPECT_EQ(seeds[0], (IntGenome{1, 0, 0, 0, 0, 0, 0, 1, 1}));  // exit at 4
  EXPECT_EQ(seeds[1], (IntGenome{0, 0, 1, 0, 0, 0, 0, 1, 1}));  // exit at 6
  EXPECT_EQ(seeds[2], (IntGenome{0, 1, 0, 0, 0, 0, 0, 1, 1}));  // exit at 5
  EXPECT_EQ(seeds[3], (IntGenome{0, 0, 0, 1, 0, 0, 0, 1, 1}));  // exit at 7
}

TEST_F(SeedPoolTest, SkipsBackbonesWithoutIoeAndDeduplicates) {
  std::vector<core::BackboneOutcome> outcomes = {
      outcome(12, {{4}}), outcome(12, {{9}}, /*ioe_ran=*/false),
      outcome(12, {{4}})};  // duplicate of the first after re-encoding
  const auto seeds = core::ioe_seed_pool(outcomes, 7, device, 8);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0][0], 1);
}

TEST_F(SeedPoolTest, TranslatesAcrossBackboneDepthsAndCaps) {
  // Source backbone has 16 layers (11 eligible); target has only 4 eligible
  // slots, so exits past the target's range are dropped by truncation.
  std::vector<core::BackboneOutcome> outcomes = {
      outcome(16, {{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}})};
  const auto seeds = core::ioe_seed_pool(outcomes, 4, device, 8);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].size(), 6u);  // 4 placement bits + 2 DVFS genes
  EXPECT_EQ(seeds[0], (IntGenome{1, 1, 1, 1, 1, 1}));
  // Empty pools for degenerate inputs.
  EXPECT_TRUE(core::ioe_seed_pool(outcomes, 0, device, 8).empty());
  EXPECT_TRUE(core::ioe_seed_pool(outcomes, 4, device, 0).empty());
  // max_seeds caps the pool.
  std::vector<core::BackboneOutcome> many = {
      outcome(12, {{4}, {5}, {6}, {7}, {8}})};
  EXPECT_EQ(core::ioe_seed_pool(many, 7, device, 3).size(), 3u);
}

TEST_F(SeedPoolTest, ClampsDvfsIndicesToDeviceTables) {
  core::BackboneOutcome out;
  out.ioe_ran = true;
  out.inner_pareto.push_back(core::InnerSolution{
      dynn::ExitPlacement(12, {4}), hw::DvfsSetting{999, 999}, {}, {0.0}});
  const auto seeds = core::ioe_seed_pool({out}, 7, device, 4);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(static_cast<std::size_t>(seeds[0][7]),
            device.core_freqs_hz.size() - 1);
  EXPECT_EQ(static_cast<std::size_t>(seeds[0][8]),
            device.emc_freqs_hz.size() - 1);
}

/// A toy 2-objective problem for exercising the NSGA-II warm-start path.
class ToyProblem final : public core::Problem {
 public:
  std::vector<std::size_t> gene_cardinalities() const override {
    return {8, 8, 8};
  }
  Objectives evaluate(const IntGenome& g) override {
    const double a = static_cast<double>(g[0] + g[1]);
    const double b = static_cast<double>(g[2]) - static_cast<double>(g[0]);
    return {a, b};
  }
};

TEST(Nsga2WarmStart, SeededRunIsDeterministicAndSeedsEnterPopulation) {
  core::Nsga2Config config;
  config.population = 8;
  config.generations = 0;  // inspect the initial population directly
  config.seed = 42;
  config.initial_population = {{7, 7, 7}, {0, 0, 7}};

  ToyProblem p1, p2;
  const auto r1 = core::Nsga2(config).run(p1);
  const auto r2 = core::Nsga2(config).run(p2);
  ASSERT_EQ(r1.final_population.size(), 8u);
  EXPECT_EQ(r1.final_population.size(), r2.final_population.size());
  for (std::size_t i = 0; i < r1.final_population.size(); ++i)
    EXPECT_EQ(r1.final_population[i].genome, r2.final_population[i].genome);

  bool saw_seed0 = false, saw_seed1 = false;
  for (const auto& ind : r1.final_population) {
    saw_seed0 |= ind.genome == IntGenome{7, 7, 7};
    saw_seed1 |= ind.genome == IntGenome{0, 0, 7};
  }
  EXPECT_TRUE(saw_seed0);
  EXPECT_TRUE(saw_seed1);
}

TEST(Nsga2WarmStart, RejectsWrongLengthSeeds) {
  core::Nsga2Config config;
  config.population = 4;
  config.generations = 1;
  config.initial_population = {{1, 2}};  // problem has 3 genes
  ToyProblem problem;
  core::Nsga2 nsga(config);
  EXPECT_THROW(nsga.run(problem), std::invalid_argument);
}

/// Coarse-grid problem for the differential test: every objective is a hash
/// of the genome reduced to a few levels, so equal points, duplicate
/// genomes and deep dominance chains are all common. Repair draws from the
/// RNG, so any drift in the engines' RNG streams shows up in the genomes.
class CoarseGridProblem final : public core::Problem {
 public:
  CoarseGridProblem(std::size_t dims, std::uint64_t levels)
      : dims_(dims), levels_(levels) {}

  std::vector<std::size_t> gene_cardinalities() const override {
    return {2, 2, 2, 2, 3, 3, 4, 5};
  }
  Objectives evaluate(const IntGenome& g) override {
    Objectives out(dims_);
    for (std::size_t k = 0; k < dims_; ++k) {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL * (k + 1);
      for (std::int32_t v : g) h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
      out[k] = static_cast<double>((h >> 17) % levels_);
    }
    return out;
  }
  void repair(IntGenome& g, util::Rng& rng) const override {
    if (g[0] == g[1] && rng.bernoulli(0.5)) g[6] = static_cast<std::int32_t>(rng.uniform_index(4));
  }

 private:
  std::size_t dims_;
  std::uint64_t levels_;
};

/// Reference NSGA-II with the engine's operators and RNG stream, but no
/// incremental sorting: parents and parents+offspring are re-ranked every
/// generation by the full Deb sort. Elitist order is front-major with the
/// crowding-truncated cut front listed in ascending index order.
core::Nsga2Result full_sort_nsga2(const core::Nsga2Config& config,
                                  core::Problem& problem) {
  util::Rng rng(config.seed);
  const auto cardinalities = problem.gene_cardinalities();
  const double mut_prob = config.mutation_prob > 0.0
                              ? config.mutation_prob
                              : 1.0 / static_cast<double>(cardinalities.size());
  core::Nsga2Result result;
  std::map<IntGenome, Objectives> cache;
  core::ParetoArchive archive;
  auto evaluate = [&](const IntGenome& genome) {
    ++result.evaluations;
    const auto it = cache.find(genome);
    if (it != cache.end()) return it->second;
    Objectives obj = problem.evaluate(genome);
    cache.emplace(genome, obj);
    result.history.push_back({genome, obj});
    archive.insert(obj, result.history.size() - 1);
    return obj;
  };

  std::vector<core::Individual> pop;
  for (std::size_t i = 0; i < config.population; ++i) {
    IntGenome genome;
    if (i < config.initial_population.size()) {
      genome = config.initial_population[i];
      problem.repair(genome, rng);
    } else {
      genome = problem.random_genome(rng);
    }
    pop.push_back({genome, evaluate(genome)});
  }
  auto objectives_of = [&] {
    std::vector<Objectives> points;
    for (const auto& ind : pop) points.push_back(ind.objectives);
    return points;
  };
  auto record_stats = [&](std::size_t gen) {
    const auto points = objectives_of();
    const std::size_t dims = points.front().size();
    core::GenerationStats stats;
    stats.generation = gen;
    stats.best.assign(dims, -std::numeric_limits<double>::infinity());
    stats.mean.assign(dims, 0.0);
    for (const auto& p : points) {
      for (std::size_t k = 0; k < dims; ++k) {
        stats.best[k] = std::max(stats.best[k], p[k]);
        stats.mean[k] += p[k] / static_cast<double>(points.size());
      }
    }
    const auto fronts = core::non_dominated_sort(points);
    std::vector<Objectives> front;
    for (std::size_t idx : fronts.front()) front.push_back(points[idx]);
    stats.front_size = front.size();
    if (config.hv_reference.size() == dims)
      stats.hypervolume = core::hypervolume(front, config.hv_reference);
    result.generations.push_back(std::move(stats));
  };

  for (std::size_t gen = 0; gen < config.generations; ++gen) {
    record_stats(gen);
    const auto parents = objectives_of();
    const std::size_t mu = parents.size();
    std::vector<std::size_t> rank(mu);
    std::vector<double> crowding(mu);
    const auto parent_fronts = core::non_dominated_sort(parents);
    for (std::size_t f = 0; f < parent_fronts.size(); ++f) {
      const auto dist = core::crowding_distance(parents, parent_fronts[f]);
      for (std::size_t i = 0; i < parent_fronts[f].size(); ++i) {
        rank[parent_fronts[f][i]] = f;
        crowding[parent_fronts[f][i]] = dist[i];
      }
    }
    auto tournament = [&] {
      const std::size_t a = rng.uniform_index(mu);
      const std::size_t b = rng.uniform_index(mu);
      if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
      return crowding[a] >= crowding[b] ? a : b;
    };

    std::size_t produced = 0;
    IntGenome c1, c2;
    while (produced < config.population) {
      const std::size_t p1 = tournament();
      const std::size_t p2 = tournament();
      if (rng.bernoulli(config.crossover_prob)) {
        core::uniform_crossover(pop[p1].genome, pop[p2].genome, c1, c2, rng);
      } else {
        c1 = pop[p1].genome;
        c2 = pop[p2].genome;
      }
      for (IntGenome* child : {&c1, &c2}) {
        if (produced == config.population) break;
        core::reset_mutation(*child, cardinalities, mut_prob, rng);
        problem.repair(*child, rng);
        pop.push_back({*child, evaluate(*child)});
        ++produced;
      }
    }

    const auto all = objectives_of();
    std::vector<std::size_t> keep;
    for (const auto& front : core::non_dominated_sort(all)) {
      if (keep.size() == config.population) break;
      std::vector<std::size_t> members = front;
      if (keep.size() + front.size() > config.population) {
        const auto dist = core::crowding_distance(all, front);
        std::vector<std::size_t> order(front.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
        members.clear();
        for (std::size_t i = 0; keep.size() + members.size() < config.population; ++i)
          members.push_back(front[order[i]]);
        std::sort(members.begin(), members.end());
      }
      keep.insert(keep.end(), members.begin(), members.end());
    }
    std::vector<core::Individual> survivors;
    for (std::size_t idx : keep) survivors.push_back(pop[idx]);
    pop = std::move(survivors);
  }
  record_stats(config.generations);

  for (std::size_t payload : archive.payloads())
    result.front.push_back(result.history[payload]);
  result.final_population = pop;
  return result;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

bool same_individuals(const std::vector<core::Individual>& a,
                      const std::vector<core::Individual>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::Individual& x, const core::Individual& y) {
                      return x.genome == y.genome &&
                             same_bits(x.objectives, y.objectives);
                    });
}

::testing::AssertionResult same_run(const core::Nsga2Result& got,
                                    const core::Nsga2Result& want) {
  if (got.evaluations != want.evaluations)
    return ::testing::AssertionFailure()
           << "evaluations " << got.evaluations << " vs " << want.evaluations;
  if (!same_individuals(got.history, want.history))
    return ::testing::AssertionFailure() << "history differs";
  if (!same_individuals(got.final_population, want.final_population))
    return ::testing::AssertionFailure() << "final_population differs";
  if (!same_individuals(got.front, want.front))
    return ::testing::AssertionFailure() << "front differs";
  if (got.generations.size() != want.generations.size())
    return ::testing::AssertionFailure() << "generation count differs";
  for (std::size_t g = 0; g < got.generations.size(); ++g) {
    const auto& a = got.generations[g];
    const auto& b = want.generations[g];
    if (a.generation != b.generation || !same_bits(a.best, b.best) ||
        !same_bits(a.mean, b.mean) || a.front_size != b.front_size ||
        !same_bits({a.hypervolume}, {b.hypervolume}))
      return ::testing::AssertionFailure() << "GenerationStats differ at " << g;
  }
  return ::testing::AssertionSuccess();
}

/// NSGA-II on incrementally maintained FrontLevels must reproduce the
/// full-sort reference bit for bit: same RNG stream, same evaluations,
/// same history, population, front and per-generation statistics.
TEST(Nsga2Differential, MatchesFullSortReferenceOnCoarseGrids) {
  util::Rng pick(20231);
  for (int round = 0; round < 60; ++round) {
    const std::size_t dims = 2 + static_cast<std::size_t>(round % 2);
    core::Nsga2Config config;
    config.population = 4 + pick.uniform_index(41);   // 4..44
    config.generations = 1 + pick.uniform_index(25);  // 1..25
    config.crossover_prob = pick.uniform();
    config.mutation_prob = round % 3 == 0 ? -1.0 : pick.uniform(0.05, 0.5);
    config.seed = pick.next_u64();
    if (round % 4 < 2) config.hv_reference.assign(dims, -1.0);
    if (round % 3 != 2) {
      // Warm seeds with duplicates; more seeds than slots get truncated.
      const std::size_t seeds = 1 + pick.uniform_index(config.population + 4);
      CoarseGridProblem shape(dims, 2);
      for (std::size_t i = 0; i < seeds; ++i) {
        IntGenome seed = i > 0 && pick.bernoulli(0.3)
                             ? config.initial_population.back()
                             : shape.random_genome(pick);
        config.initial_population.push_back(std::move(seed));
      }
    }
    const std::uint64_t levels = 2 + pick.uniform_index(4);  // 2..5 levels

    CoarseGridProblem engine_problem(dims, levels);
    CoarseGridProblem reference_problem(dims, levels);
    const auto got = core::Nsga2(config).run(engine_problem);
    const auto want = full_sort_nsga2(config, reference_problem);
    ASSERT_TRUE(same_run(got, want))
        << "round " << round << " (population " << config.population
        << ", generations " << config.generations << ", dims " << dims << ")";
  }
}

/// The differential test must not pass vacuously: across its configs the
/// runs see multi-front populations and evaluate duplicate genomes.
TEST(Nsga2Differential, CoarseGridRunsHaveTiesAndManyFronts) {
  core::Nsga2Config config;
  config.population = 24;
  config.generations = 10;
  config.seed = 7;
  CoarseGridProblem problem(2, 3);
  const auto result = core::Nsga2(config).run(problem);
  EXPECT_GT(result.evaluations, result.history.size());  // cache hits
  std::vector<Objectives> seen;
  for (const auto& ind : result.history) seen.push_back(ind.objectives);
  EXPECT_GE(core::non_dominated_sort(seen).size(), 3u);
  std::sort(seen.begin(), seen.end());
  EXPECT_NE(std::unique(seen.begin(), seen.end()), seen.end());  // equal points
}

}  // namespace
}  // namespace hadas
