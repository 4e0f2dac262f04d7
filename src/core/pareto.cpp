#include "core/pareto.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace hadas::core {

namespace {

/// `dominates` without the dimension check, for the sorting hot loops whose
/// points share one dimensionality by construction.
bool dominates_unchecked(const Objectives& a, const Objectives& b) {
  bool strictly_better = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] < b[k]) return false;
    if (a[k] > b[k]) strictly_better = true;
  }
  return strictly_better;
}

}  // namespace

bool dominates(const Objectives& a, const Objectives& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dominates: dim mismatch");
  return dominates_unchecked(a, b);
}

std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points) {
  const std::size_t n = points.size();
  for (const auto& p : points)
    if (p.size() != points.front().size())
      throw std::invalid_argument("non_dominated_sort: dim mismatch");
  std::vector<std::vector<std::size_t>> dominated_by(n);  // i dominates these
  std::vector<std::size_t> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts;

  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (dominates_unchecked(points[i], points[j]))
        dominated_by[i].push_back(j);
      else if (dominates_unchecked(points[j], points[i]))
        ++domination_count[i];
    }
    if (domination_count[i] == 0) current.push_back(i);
  }

  while (!current.empty()) {
    std::sort(current.begin(), current.end());
    fronts.push_back(current);
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      for (std::size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
  }
  return fronts;
}

std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front) {
  const std::size_t m = front.size();
  std::vector<double> dist(m, 0.0);
  if (m == 0) return dist;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (m <= 2) {
    std::fill(dist.begin(), dist.end(), kInf);
    return dist;
  }
  const std::size_t dims = points.front().size();
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  for (std::size_t k = 0; k < dims; ++k) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return points[front[a]][k] < points[front[b]][k];
    });
    const double lo = points[front[order.front()]][k];
    const double hi = points[front[order.back()]][k];
    dist[order.front()] = kInf;
    dist[order.back()] = kInf;
    if (hi <= lo) continue;
    for (std::size_t i = 1; i + 1 < m; ++i) {
      if (dist[order[i]] == kInf) continue;
      dist[order[i]] +=
          (points[front[order[i + 1]]][k] - points[front[order[i - 1]]][k]) /
          (hi - lo);
    }
  }
  return dist;
}

void FrontLevels::rebuild(const std::vector<Objectives>& points) {
  fronts_ = non_dominated_sort(points);
  rank_.assign(points.size(), 0);
  for (std::size_t f = 0; f < fronts_.size(); ++f)
    for (std::size_t idx : fronts_[f]) rank_[idx] = f;
}

void FrontLevels::insert(const std::vector<Objectives>& points, std::size_t idx) {
  if (idx != rank_.size())
    throw std::invalid_argument("FrontLevels::insert: non-contiguous index");
  const Objectives& p = points[idx];

  // Find the first level where nothing dominates the newcomer.
  std::size_t f = 0;
  for (; f < fronts_.size(); ++f) {
    bool dominated = false;
    for (std::size_t m : fronts_[f]) {
      if (dominates_unchecked(points[m], p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) break;
  }
  rank_.push_back(f);
  if (f == fronts_.size()) {
    fronts_.push_back({idx});
    return;
  }

  // Members of level f the newcomer dominates get displaced downward.
  std::vector<std::size_t> moved;
  auto& front = fronts_[f];
  std::size_t w = 0;
  for (std::size_t r = 0; r < front.size(); ++r) {
    if (dominates_unchecked(p, points[front[r]]))
      moved.push_back(front[r]);
    else
      front[w++] = front[r];
  }
  front.resize(w);
  front.push_back(idx);  // idx is the largest index: ascending order kept

  // Cascade: a displaced set from level l can only push members of level
  // l+1 further down (nothing in l+1 can dominate a former member of l), so
  // a single downward sweep restores all invariants.
  std::size_t level = f + 1;
  while (!moved.empty()) {
    if (level == fronts_.size()) {
      for (std::size_t m : moved) rank_[m] = level;
      fronts_.push_back(std::move(moved));
      return;
    }
    auto& cur = fronts_[level];
    std::vector<std::size_t> displaced;
    w = 0;
    for (std::size_t r = 0; r < cur.size(); ++r) {
      bool dom = false;
      for (std::size_t t : moved) {
        if (dominates_unchecked(points[t], points[cur[r]])) {
          dom = true;
          break;
        }
      }
      if (dom)
        displaced.push_back(cur[r]);
      else
        cur[w++] = cur[r];
    }
    cur.resize(w);
    std::vector<std::size_t> merged;
    merged.reserve(cur.size() + moved.size());
    std::merge(cur.begin(), cur.end(), moved.begin(), moved.end(),
               std::back_inserter(merged));
    cur = std::move(merged);
    for (std::size_t t : moved) rank_[t] = level;
    moved = std::move(displaced);
    ++level;
  }
}

void FrontLevels::select(const std::vector<std::size_t>& keep) {
  std::vector<std::size_t> old_to_new(rank_.size(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < keep.size(); ++i) old_to_new[keep[i]] = i;

  std::vector<std::vector<std::size_t>> next_fronts;
  std::vector<std::size_t> next_rank(keep.size(), 0);
  for (const auto& front : fronts_) {
    std::vector<std::size_t> kept;
    for (std::size_t idx : front) {
      const std::size_t renumbered = old_to_new[idx];
      if (renumbered == static_cast<std::size_t>(-1)) continue;
      kept.push_back(renumbered);
    }
    if (kept.empty()) continue;
    // keep[] is front-major ascending, so renumbering is monotone within a
    // front and `kept` stays ascending.
    for (std::size_t idx : kept) next_rank[idx] = next_fronts.size();
    next_fronts.push_back(std::move(kept));
  }
  fronts_ = std::move(next_fronts);
  rank_ = std::move(next_rank);
}

std::vector<std::size_t> pareto_front(const std::vector<Objectives>& points) {
  if (points.empty()) return {};
  return non_dominated_sort(points).front();
}

namespace {
/// Recursive dimension-sweep hypervolume (maximization, exclusive slices).
double hv_recursive(std::vector<Objectives> points, const Objectives& ref) {
  const std::size_t dims = ref.size();
  // Drop points that do not strictly dominate the reference in every axis.
  points.erase(std::remove_if(points.begin(), points.end(),
                              [&](const Objectives& p) {
                                for (std::size_t k = 0; k < dims; ++k)
                                  if (p[k] <= ref[k]) return true;
                                return false;
                              }),
               points.end());
  if (points.empty()) return 0.0;

  if (dims == 1) {
    double best = ref[0];
    for (const auto& p : points) best = std::max(best, p[0]);
    return best - ref[0];
  }

  // Sort by the last axis descending and sweep exclusive slabs.
  std::sort(points.begin(), points.end(),
            [dims](const Objectives& a, const Objectives& b) {
              return a[dims - 1] > b[dims - 1];
            });
  double volume = 0.0;
  std::vector<Objectives> seen;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double upper = points[i][dims - 1];
    const double lower = (i + 1 < points.size()) ? points[i + 1][dims - 1] : ref[dims - 1];
    Objectives proj(points[i].begin(), points[i].end() - 1);
    seen.push_back(std::move(proj));
    if (upper <= lower) continue;
    Objectives sub_ref(ref.begin(), ref.end() - 1);
    volume += (upper - lower) * hv_recursive(seen, sub_ref);
  }
  return volume;
}
}  // namespace

double hypervolume(const std::vector<Objectives>& points,
                   const Objectives& reference) {
  if (reference.empty()) throw std::invalid_argument("hypervolume: empty reference");
  for (const auto& p : points)
    if (p.size() != reference.size())
      throw std::invalid_argument("hypervolume: dim mismatch");
  if (reference.size() == 2) {
    // Exact 2-D sweep: sort by x descending, accumulate staircase area.
    std::vector<Objectives> pts;
    for (const auto& p : points)
      if (p[0] > reference[0] && p[1] > reference[1]) pts.push_back(p);
    if (pts.empty()) return 0.0;
    std::sort(pts.begin(), pts.end(), [](const Objectives& a, const Objectives& b) {
      return a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]);
    });
    double area = 0.0;
    double best_y = reference[1];
    for (const auto& p : pts) {
      if (p[1] > best_y) {
        area += (p[0] - reference[0]) * (p[1] - best_y);
        best_y = p[1];
      }
    }
    return area;
  }
  return hv_recursive(points, reference);
}

double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b) {
  if (b.empty()) return 0.0;
  std::size_t covered = 0;
  for (const auto& pb : b) {
    for (const auto& pa : a) {
      if (dominates(pa, pb)) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(b.size());
}

double ratio_of_dominance(const std::vector<Objectives>& a,
                          const std::vector<Objectives>& b) {
  if (a.empty()) return 0.0;
  std::size_t dominant = 0;
  for (const auto& pa : a) {
    for (const auto& pb : b) {
      if (dominates(pa, pb)) {
        ++dominant;
        break;
      }
    }
  }
  return static_cast<double>(dominant) / static_cast<double>(a.size());
}

bool ParetoArchive::insert(const Objectives& objectives, std::size_t payload) {
  for (const auto& existing : objs_) {
    if (dominates(existing, objectives) || existing == objectives) return false;
  }
  // Evict entries the newcomer dominates.
  std::size_t write = 0;
  for (std::size_t i = 0; i < objs_.size(); ++i) {
    if (!dominates(objectives, objs_[i])) {
      if (write != i) {
        objs_[write] = std::move(objs_[i]);
        entries_[write] = entries_[i];
      }
      ++write;
    }
  }
  objs_.resize(write);
  entries_.resize(write);
  objs_.push_back(objectives);
  entries_.push_back(payload);
  return true;
}

}  // namespace hadas::core
