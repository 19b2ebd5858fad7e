// Reference-point dedup kernels: called once per candidate pair/tuple, so
// they must stay free of std::function indirection and heap allocation —
// enforced by tools/mwsj_check.py via the MWSJ_ALLOC_FREE /
// MWSJ_DETERMINISTIC annotations in dedup.h. Each check counts itself
// into the calling thread's current work block (common/work_counters.h);
// there is no shared state and no lock to annotate.
#include "core/dedup.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mwsj {

namespace {

inline bool Tally(bool owns) {
  if (owns) CountWork(&WorkCounters::owned);
  return owns;
}

// Rounding slack for the prefix filter's reach bounds. A true reach is
// base + a path of edge distances and extents; the computed one differs
// by a few ulps per term, and an Ra(d) edge may accept a gap of
// d(1 + 3 eps) plus ~2^-537 where d·d underflows. The relative term covers
// millions of terms' worth of eps, the absolute one the underflow, so the
// padded bound is never smaller than the true reach.
constexpr double kReachRelativeSlack = 1e-9;
constexpr double kReachAbsoluteSlack = 1e-150;

// Upper bound on x for x <= base + dist (dist >= 0 or +inf/NaN).
inline double PadUp(double base, double dist) {
  return base + dist +
         (kReachRelativeSlack * (std::fabs(base) + dist) + kReachAbsoluteSlack);
}

// Lower bound on y for y >= base - dist.
inline double PadDown(double base, double dist) {
  return base - dist -
         (kReachRelativeSlack * (std::fabs(base) + dist) + kReachAbsoluteSlack);
}

// Shortest paths over the query graph: `edge` holds the direct edge
// weights (+inf when absent, 0 on the diagonal); passing through relation
// k adds extent[k], the widest local rectangle of k along the axis.
void NodeWeightedShortestPaths(std::span<const double> extent,
                               std::vector<double>* dist) {
  const size_t m = extent.size();
  std::vector<double>& d = *dist;
  for (size_t k = 0; k < m; ++k) {
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        d[i * m + j] =
            std::min(d[i * m + j], d[i * m + k] + extent[k] + d[k * m + j]);
      }
    }
  }
}

}  // namespace

bool OwnsOverlapPair(const GridPartition& grid, CellId cell, const Rect& r1,
                     const Rect& r2) {
  CountWork(&WorkCounters::pair_checks);
  const std::optional<Rect> overlap = Intersection(r1, r2);
  if (!overlap.has_value()) return false;
  return Tally(grid.CellOfPoint(overlap->start_point()) == cell);
}

bool OwnsRangePair(const GridPartition& grid, CellId cell, const Rect& r1,
                   const Rect& r2, double d) {
  CountWork(&WorkCounters::range_pair_checks);
  const std::optional<Rect> overlap = Intersection(r1.EnlargeByDistance(d), r2);
  if (!overlap.has_value()) return false;
  return Tally(grid.CellOfPoint(overlap->start_point()) == cell);
}

Point MultiwayReferencePoint(std::span<const Rect* const> members) {
  double max_start_x = members[0]->start_point().x;
  double min_start_y = members[0]->start_point().y;
  for (const Rect* r : members.subspan(1)) {
    max_start_x = std::max(max_start_x, r->start_point().x);
    min_start_y = std::min(min_start_y, r->start_point().y);
  }
  return Point{max_start_x, min_start_y};
}

bool OwnsTuple(const GridPartition& grid, CellId cell,
               std::span<const Rect* const> members) {
  CountWork(&WorkCounters::tuple_checks);
  return Tally(grid.CellOfPoint(MultiwayReferencePoint(members)) == cell);
}

PrefixOwnershipFilter::PrefixOwnershipFilter(
    const Query& query, const GridPartition& grid, CellId cell,
    std::span<const std::span<const LocalRect>> relations)
    : m_(relations.size()) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Rect cell_rect = grid.CellRect(cell);
  left_x_ = grid.ColOf(cell) > 0 ? cell_rect.min_x() : -kInf;
  top_y_ = grid.RowOf(cell) > 0 ? cell_rect.max_y() : kInf;

  max_start_x_.assign(m_, -kInf);
  min_start_y_.assign(m_, kInf);
  std::vector<double> width(m_, 0.0);
  std::vector<double> height(m_, 0.0);
  for (size_t r = 0; r < m_; ++r) {
    for (const LocalRect& lr : relations[r]) {
      max_start_x_[r] = std::max(max_start_x_[r], lr.rect.min_x());
      min_start_y_[r] = std::min(min_start_y_[r], lr.rect.max_y());
      width[r] = std::max(width[r], lr.rect.length());
      height[r] = std::max(height[r], lr.rect.breadth());
    }
  }

  dx_.assign(m_ * m_, kInf);
  for (size_t r = 0; r < m_; ++r) dx_[r * m_ + r] = 0;
  for (const JoinCondition& c : query.conditions()) {
    // An Ra(d) pair has both axis gaps <= d; a negative or NaN d accepts no
    // pair, so any weight is sound there and 0 keeps the sums ordinary.
    const double d = c.predicate.distance();
    const double w = c.predicate.is_overlap() || !(d >= 0) ? 0.0 : d;
    const size_t a = static_cast<size_t>(c.left);
    const size_t b = static_cast<size_t>(c.right);
    dx_[a * m_ + b] = std::min(dx_[a * m_ + b], w);
    dx_[b * m_ + a] = std::min(dx_[b * m_ + a], w);
  }
  dy_ = dx_;
  NodeWeightedShortestPaths(width, &dx_);
  NodeWeightedShortestPaths(height, &dy_);
}

bool PrefixOwnershipFilter::MayOwn(
    std::span<const LocalRect* const> partial) const {
  bool column = false;
  bool row = false;
  for (const LocalRect* b : partial) {
    if (b == nullptr) continue;
    column = column || b->rect.min_x() > left_x_;
    row = row || b->rect.max_y() < top_y_;
  }
  for (size_t u = 0; u < m_ && !(column && row); ++u) {
    if (partial[u] != nullptr) continue;
    // std::min/max keep the first argument against a NaN bound, so a NaN
    // path sum drops out instead of poisoning the reach.
    double reach_x = max_start_x_[u];
    double reach_y = min_start_y_[u];
    for (size_t b = 0; b < m_; ++b) {
      if (partial[b] == nullptr) continue;
      const Rect& bound = partial[b]->rect;
      reach_x = std::min(reach_x, PadUp(bound.max_x(), dx_[b * m_ + u]));
      reach_y = std::max(reach_y, PadDown(bound.min_y(), dy_[b * m_ + u]));
    }
    column = column || reach_x > left_x_;
    row = row || reach_y < top_y_;
  }
  return column && row;
}

}  // namespace mwsj
