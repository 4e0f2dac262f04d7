#include "core/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace hadas::core {

void Problem::repair(IntGenome&, hadas::util::Rng&) const {}

IntGenome Problem::random_genome(hadas::util::Rng& rng) const {
  const auto card = gene_cardinalities();
  IntGenome g(card.size());
  for (std::size_t i = 0; i < card.size(); ++i) {
    if (card[i] == 0) throw std::logic_error("Problem: zero-cardinality gene");
    g[i] = static_cast<std::int32_t>(rng.uniform_index(card[i]));
  }
  repair(g, rng);
  return g;
}

void uniform_crossover(const IntGenome& a, const IntGenome& b, IntGenome& child1,
                       IntGenome& child2, hadas::util::Rng& rng) {
  if (a.size() != b.size())
    throw std::invalid_argument("uniform_crossover: length mismatch");
  child1 = a;
  child2 = b;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rng.bernoulli(0.5)) std::swap(child1[i], child2[i]);
  }
}

void reset_mutation(IntGenome& genome, const std::vector<std::size_t>& cardinalities,
                    double per_gene_prob, hadas::util::Rng& rng) {
  if (genome.size() != cardinalities.size())
    throw std::invalid_argument("reset_mutation: length mismatch");
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (cardinalities[i] <= 1 || !rng.bernoulli(per_gene_prob)) continue;
    // Spec v2: draw from the card-1 values that are NOT the current one and
    // shift past it. One variate with the exact excluding-uniform
    // distribution — the old resample-until-different loop drew an unbounded
    // number of variates, making mutation cost (and the seeded RNG stream
    // length) depend on gene cardinality. Perturbs seeded streams relative
    // to spec v1 runs.
    auto value =
        static_cast<std::int32_t>(rng.uniform_index(cardinalities[i] - 1));
    if (value >= genome[i]) ++value;
    genome[i] = value;
  }
}

namespace {

/// FNV-1a over the genome's int32 values; keys the evaluation memo (the old
/// std::map cost a full lexicographic genome comparison per tree level).
struct GenomeHash {
  std::size_t operator()(const IntGenome& g) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::int32_t v : g) {
      h ^= static_cast<std::uint32_t>(v);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Elitist (mu + lambda) truncation over the fronts of `points`: whole
/// fronts while they fit, crowding-truncated cut front, all listed
/// front-major in ascending index order (the canonical order that keeps
/// FrontLevels::select exact).
std::vector<std::size_t> elitist_keep(
    const std::vector<Objectives>& points,
    const std::vector<std::vector<std::size_t>>& fronts, std::size_t target) {
  std::vector<std::size_t> keep;
  keep.reserve(target);
  for (const auto& front : fronts) {
    if (keep.size() + front.size() <= target) {
      keep.insert(keep.end(), front.begin(), front.end());
      if (keep.size() == target) break;
    } else {
      const auto dist = crowding_distance(points, front);
      std::vector<std::size_t> order(front.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
      std::vector<std::size_t> cut;
      for (std::size_t i = 0; keep.size() + cut.size() < target; ++i)
        cut.push_back(front[order[i]]);
      std::sort(cut.begin(), cut.end());
      keep.insert(keep.end(), cut.begin(), cut.end());
      break;
    }
  }
  return keep;
}

/// Keep exactly the listed elements (distinct indices), in list order.
template <typename T>
void compact(std::vector<T>& values, const std::vector<std::size_t>& keep) {
  std::vector<T> kept;
  kept.reserve(keep.size());
  for (std::size_t idx : keep) kept.push_back(std::move(values[idx]));
  values = std::move(kept);
}

}  // namespace

std::vector<Individual> select_by_rank_crowding(std::vector<Individual> candidates,
                                                std::size_t target) {
  if (candidates.size() <= target) return candidates;
  std::vector<Objectives> points;
  points.reserve(candidates.size());
  for (const auto& c : candidates) points.push_back(c.objectives);
  const auto keep = elitist_keep(points, non_dominated_sort(points), target);
  std::vector<Individual> selected;
  selected.reserve(target);
  for (std::size_t idx : keep) selected.push_back(std::move(candidates[idx]));
  return selected;
}

Nsga2Result Nsga2::run(Problem& problem) {
  if (config_.population < 2) throw std::invalid_argument("Nsga2: population < 2");
  hadas::util::Rng rng(config_.seed);
  const auto cardinalities = problem.gene_cardinalities();
  const double mut_prob = config_.mutation_prob > 0.0
                              ? config_.mutation_prob
                              : 1.0 / static_cast<double>(cardinalities.size());

  Nsga2Result result;
  std::unordered_map<IntGenome, Objectives, GenomeHash> cache;
  ParetoArchive archive;

  auto evaluate = [&](const IntGenome& genome) -> Objectives {
    ++result.evaluations;
    auto it = cache.find(genome);
    if (it != cache.end()) return it->second;
    Objectives obj = problem.evaluate(genome);
    cache.emplace(genome, obj);
    result.history.push_back({genome, obj});
    archive.insert(obj, result.history.size() - 1);
    return obj;
  };

  // Population i is (genomes[i], objectives[i]). The front structure is
  // maintained incrementally across generations instead of re-sorted from
  // scratch.
  std::vector<IntGenome> genomes;
  std::vector<Objectives> objectives;
  FrontLevels levels;
  auto materialize = [&] {
    std::vector<Individual> out(genomes.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = {genomes[i], objectives[i]};
    return out;
  };

  // Initial population: warm seeds first (repaired), then random fill. An
  // empty seed list reproduces the historical fully random cold start.
  for (std::size_t i = 0; i < config_.population; ++i) {
    IntGenome genome;
    if (i < config_.initial_population.size()) {
      genome = config_.initial_population[i];
      if (genome.size() != cardinalities.size())
        throw std::invalid_argument("Nsga2: seed genome length mismatch");
      problem.repair(genome, rng);
    } else {
      genome = problem.random_genome(rng);
    }
    objectives.push_back(evaluate(genome));
    genomes.push_back(std::move(genome));
  }
  levels.rebuild(objectives);

  auto record_stats = [&](std::size_t gen) {
    GenerationStats stats;
    stats.generation = gen;
    const std::size_t dims = objectives.front().size();
    const std::size_t n = objectives.size();
    stats.best.assign(dims, -std::numeric_limits<double>::infinity());
    stats.mean.assign(dims, 0.0);
    for (const Objectives& row : objectives) {
      for (std::size_t k = 0; k < dims; ++k) {
        stats.best[k] = std::max(stats.best[k], row[k]);
        stats.mean[k] += row[k] / static_cast<double>(n);
      }
    }
    const auto& front = levels.fronts().front();
    stats.front_size = front.size();
    if (config_.hv_reference.size() == dims) {
      std::vector<Objectives> front_points;
      front_points.reserve(front.size());
      for (std::size_t idx : front) front_points.push_back(objectives[idx]);
      stats.hypervolume = hypervolume(front_points, config_.hv_reference);
    }
    result.generations.push_back(std::move(stats));
  };

  // Parent (rank, crowding) snapshot for tournament selection, reused
  // across generations.
  std::vector<std::size_t> rank;
  std::vector<double> crowding;

  for (std::size_t gen = 0; gen < config_.generations; ++gen) {
    record_stats(gen);
    if (observer_) observer_(gen, materialize());

    // Offspring insertions below must not shift the selection pressure
    // mid-generation, so the tournament reads this snapshot.
    const std::size_t mu = objectives.size();
    rank.resize(mu);
    crowding.resize(mu);
    for (const auto& front : levels.fronts()) {
      const auto dist = crowding_distance(objectives, front);
      for (std::size_t i = 0; i < front.size(); ++i) {
        rank[front[i]] = levels.rank_of(front[i]);
        crowding[front[i]] = dist[i];
      }
    }

    auto tournament = [&]() -> std::size_t {
      const std::size_t a = rng.uniform_index(mu);
      const std::size_t b = rng.uniform_index(mu);
      if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
      return crowding[a] >= crowding[b] ? a : b;
    };

    // Offspring generation (lambda = mu); each evaluated child is appended
    // to the population and ENLU-inserted into the maintained fronts.
    std::size_t produced = 0;
    IntGenome c1, c2;
    while (produced < config_.population) {
      const std::size_t p1 = tournament();
      const std::size_t p2 = tournament();
      if (rng.bernoulli(config_.crossover_prob)) {
        uniform_crossover(genomes[p1], genomes[p2], c1, c2, rng);
      } else {
        c1 = genomes[p1];
        c2 = genomes[p2];
      }
      for (IntGenome* child : {&c1, &c2}) {
        if (produced == config_.population) break;
        reset_mutation(*child, cardinalities, mut_prob, rng);
        problem.repair(*child, rng);
        objectives.push_back(evaluate(*child));
        genomes.push_back(*child);
        levels.insert(objectives, objectives.size() - 1);
        ++produced;
      }
    }

    // Elitist environmental selection over parents + offspring; the kept
    // points are front-prefix closed, so the surviving levels are exactly
    // the fronts of the survivor subset — no re-sort next generation.
    const auto keep = elitist_keep(objectives, levels.fronts(), config_.population);
    compact(genomes, keep);
    compact(objectives, keep);
    levels.select(keep);
  }
  record_stats(config_.generations);
  if (observer_) observer_(config_.generations, materialize());

  // Final front: non-dominated subset of everything evaluated.
  for (std::size_t payload : archive.payloads())
    result.front.push_back(result.history[payload]);
  result.final_population = materialize();
  return result;
}

}  // namespace hadas::core
