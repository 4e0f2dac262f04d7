#pragma once

#include <cstddef>
#include <vector>

namespace hadas::core {

/// A point in objective space. ALL objectives are maximized throughout the
/// library; minimized quantities (latency, energy) are negated at the
/// problem boundary.
using Objectives = std::vector<double>;

/// True if `a` Pareto-dominates `b`: a >= b on every objective and a > b on
/// at least one. Requires equal dimensionality.
bool dominates(const Objectives& a, const Objectives& b);

/// Fast non-dominated sorting (Deb et al., NSGA-II). Returns fronts of
/// indices into `points`; front 0 is the non-dominated set. Every front is
/// in ascending index order (the canonical order the incremental
/// FrontLevels structure also maintains, so the two are comparable).
std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points);

/// Crowding distance of each member of one front (indices into `points`).
/// Boundary points get +infinity.
std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front);

/// Incrementally maintained non-domination levels (ENLU-style; Li et al.
/// 2014). Instead of re-running the O(N^2) full sort every generation, the
/// engine keeps this structure alive: offspring are inserted one at a time
/// (each insertion only touches the fronts the newcomer displaces), and the
/// post-selection truncation reuses the surviving levels directly.
///
/// Invariants:
///  * every front is an antichain, stored in ascending index order;
///  * rank_of(i) is the front index of point i;
///  * after select(keep) with a front-prefix-closed keep set (all whole
///    fronts above the cut plus any subset of the cut front — exactly what
///    NSGA-II elitist selection produces), the structure equals a full sort
///    of the survivors. This holds because every member of front k has a
///    dominator in front k-1, which selection always retains.
class FrontLevels {
 public:
  /// Rebuild from scratch (full Deb sort over `points`).
  void rebuild(const std::vector<Objectives>& points);

  /// ENLU insertion of points[idx], which must be the next unseen point
  /// (idx == size()). Displaced points cascade down one level at a time.
  void insert(const std::vector<Objectives>& points, std::size_t idx);

  /// Truncate to the kept points, renumbering them 0..keep.size()-1 in list
  /// order. `keep` must be front-prefix closed (see class comment) and
  /// listed front-major in ascending index order within each front.
  void select(const std::vector<std::size_t>& keep);

  const std::vector<std::vector<std::size_t>>& fronts() const { return fronts_; }
  std::size_t rank_of(std::size_t idx) const { return rank_[idx]; }
  std::size_t size() const { return rank_.size(); }

 private:
  std::vector<std::vector<std::size_t>> fronts_;
  std::vector<std::size_t> rank_;
};

/// Indices of the non-dominated subset of `points` (front 0).
std::vector<std::size_t> pareto_front(const std::vector<Objectives>& points);

/// Exact hypervolume of the region dominated by `points` and bounded below
/// by `reference` (maximization; points not strictly above the reference on
/// every axis contribute nothing). Supports 2-D exactly and N-D by
/// dimension-sweep recursion (fine at the small front sizes used here).
double hypervolume(const std::vector<Objectives>& points,
                   const Objectives& reference);

/// Coverage C(A, B): fraction of B's points dominated by at least one point
/// of A (Zitzler's C-metric).
double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b);

/// Ratio of dominance (the paper's Fig. 6 metric): the fraction of A's
/// points that dominate at least one point of B — "the percentage of
/// solutions found by HADAS that dominate the optimized baselines".
double ratio_of_dominance(const std::vector<Objectives>& a,
                          const std::vector<Objectives>& b);

/// Incremental Pareto archive: keeps only mutually non-dominated entries
/// with a payload index attached.
class ParetoArchive {
 public:
  /// Try to insert; returns false if the candidate is dominated by (or equal
  /// to) an archived point. Dominated archive members are evicted.
  bool insert(const Objectives& objectives, std::size_t payload);

  std::size_t size() const { return entries_.size(); }

  const std::vector<Objectives>& objectives() const { return objs_; }
  const std::vector<std::size_t>& payloads() const { return entries_; }

 private:
  std::vector<Objectives> objs_;
  std::vector<std::size_t> entries_;
};

}  // namespace hadas::core
