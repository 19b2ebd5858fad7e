#ifndef MWSJ_CORE_DEDUP_H_
#define MWSJ_CORE_DEDUP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/effects.h"
#include "common/work_counters.h"
#include "geometry/rect.h"
#include "grid/grid_partition.h"
#include "localjoin/multiway.h"
#include "query/query.h"

namespace mwsj {

/// Duplicate-avoidance rules. Because rectangles are routed to several
/// reducers, an output tuple can be assembled at several cells; each rule
/// designates exactly one owner cell, chosen so that the owner provably
/// receives every member under the corresponding routing scheme.

/// 2-way overlap rule (§5.2, after [Dittrich & Seeger]): the owner is the
/// cell containing the start point of r1 ∩ r2. Requires Overlaps(r1, r2).
///
/// The ownership checks run once per candidate pair/tuple inside reduce
/// kernels: MWSJ_ALLOC_FREE (pure arithmetic, no scratch) and
/// MWSJ_DETERMINISTIC (the same tuple must pick the same owner cell on
/// every platform, or dedup drops/duplicates output).
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC bool OwnsOverlapPair(
    const GridPartition& grid, CellId cell, const Rect& r1, const Rect& r2);

/// 2-way range rule (§5.3): the owner is the cell containing the start
/// point of r1^e(d) ∩ r2, where r1 is the replicated side and r2 the split
/// side. Requires the enlarged rectangles to overlap (callers check the
/// range predicate separately — overlap of r1^e(d) with r2 does not imply
/// the Euclidean distance bound, §5.3's counter-example).
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC bool OwnsRangePair(
    const GridPartition& grid, CellId cell, const Rect& r1, const Rect& r2,
    double d);

/// Multi-way reference point (§6.2): (u_r.x, u_l.y) with u_r the member
/// with the largest start-point x and u_l the member with the smallest
/// start-point y.
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC Point
MultiwayReferencePoint(std::span<const Rect* const> members);

/// Multi-way rule: the owner is the cell containing the reference point.
MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC bool OwnsTuple(
    const GridPartition& grid, CellId cell,
    std::span<const Rect* const> members);

/// Prefix pruning for the multi-way rule: answers, for a partial binding
/// of a reducer's local join, whether some completion could still be owned
/// by `cell`. Passed to MultiwayLocalJoin::Execute as its prefix filter, it
/// skips subtrees whose every tuple OwnsTuple would reject. A cell owns a
/// tuple only if some member starts in its column or to the right, and
/// some member in its row or below; a prefix is rejected when neither a
/// bound member nor any unbound relation can still do so. An unbound
/// relation's reach is bounded by its local rectangles and by query-graph
/// paths from the bound members (edges weigh 0 for Ov, d for Ra(d),
/// intermediate relations their widest local rectangle). The soundness
/// proof is in core/controlled_replicate.h.
class PrefixOwnershipFilter {
 public:
  /// `relations[r]` holds relation r's rectangles at this reducer — the
  /// same spans the local join enumerates. Build cost is O(m^3 + n).
  PrefixOwnershipFilter(const Query& query, const GridPartition& grid,
                        CellId cell,
                        std::span<const std::span<const LocalRect>> relations);

  /// False only when no completion of `partial` (nullptr marks an unbound
  /// relation) can be owned by the cell. Runs once per bound candidate:
  /// MWSJ_ALLOC_FREE (reads the precomputed bounds only) and
  /// MWSJ_DETERMINISTIC (pruning decides which tuples reach the emit).
  MWSJ_ALLOC_FREE MWSJ_DETERMINISTIC bool MayOwn(
      std::span<const LocalRect* const> partial) const;

  /// The MultiwayLocalJoin::Execute filter signature.
  bool operator()(const std::vector<const LocalRect*>& partial) const {
    return MayOwn(partial);
  }

 private:
  size_t m_;
  // The cell's left and top grid lines; a start point is in the cell's
  // column or to its right iff x > left_x_, in its row or below iff
  // y < top_y_ (GridPartition's left/above boundary convention). -inf and
  // +inf on the first column and row, which every start point satisfies.
  double left_x_;
  double top_y_;
  // Per relation: the largest start x (min_x) and the smallest start y
  // (max_y) among its local rectangles.
  std::vector<double> max_start_x_;
  std::vector<double> min_start_y_;
  // Row-major m x m path bounds Dx and Dy (+inf when disconnected).
  std::vector<double> dx_;
  std::vector<double> dy_;
};

/// Each check above counts itself into the calling thread's current work
/// block (common/work_counters.h), plus one `owned` per "this cell owns
/// it" answer — the same accounting as grid/transform.h's transforms:
/// JobStats::work carries a job's committed counts, and the snapshot below
/// is the process-wide executed-work total (discarded and speculative
/// attempts included). The dedup fields are `pair_checks`,
/// `range_pair_checks`, `tuple_checks` and `owned`.
using DedupCounters = WorkCounters;

/// Current process-wide executed-work totals.
inline DedupCounters SnapshotDedupCounters() { return SnapshotWorkCounters(); }

/// Per-field difference `after - before` of two snapshots.
inline DedupCounters DedupCountersDelta(const DedupCounters& before,
                                        const DedupCounters& after) {
  return WorkCountersDelta(before, after);
}

}  // namespace mwsj

#endif  // MWSJ_CORE_DEDUP_H_
