#ifndef MWSJ_CORE_DEDUP_H_
#define MWSJ_CORE_DEDUP_H_

#include <cstdint>
#include <span>

#include "common/effects.h"
#include "common/work_counters.h"
#include "geometry/rect.h"
#include "grid/grid_partition.h"

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
