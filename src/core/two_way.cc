#include "core/two_way.h"

#include <algorithm>

#include "common/trace.h"
#include "core/dedup.h"
#include "grid/transform.h"
#include "localjoin/plane_sweep.h"
#include "mapreduce/engine.h"

namespace mwsj {

TwoWayJoinOutcome TwoWaySpatialJoin(const GridPartition& grid,
                                    const Predicate& predicate,
                                    std::span<const LocalRect> left,
                                    std::span<const LocalRect> right,
                                    const ExecutionContext& ctx) {
  Tracer* const tracer = ctx.tracer;
  TraceSpan algo_span(tracer, "two_way_join", "algorithm");
  algo_span.AddArg("left_records", static_cast<int64_t>(left.size()));
  algo_span.AddArg("right_records", static_cast<int64_t>(right.size()));

  // Input records reuse RelRect with `relation` as the side tag.
  std::vector<RelRect> input;
  input.reserve(left.size() + right.size());
  for (const LocalRect& lr : left) input.push_back(RelRect{lr.rect, lr.id, 0});
  for (const LocalRect& lr : right) input.push_back(RelRect{lr.rect, lr.id, 1});

  using Job = MapReduceJob<RelRect, CellId, RelRect,
                           std::pair<int64_t, int64_t>>;
  Job job("two_way_join", grid.num_cells());
  job.set_partition([](const CellId& c) { return static_cast<int>(c); });

  const double d = predicate.is_range() ? predicate.distance() : 0.0;
  job.set_map([&grid, &predicate, d](const RelRect& r, Job::Emitter& emit) {
    std::vector<CellId>& cells = emit.ScratchKeys();
    if (r.relation == 0 && predicate.is_range()) {
      EnlargedSplitCells(grid, r.rect, d, &cells);
    } else {
      SplitCells(grid, r.rect, &cells);
    }
    for (CellId c : cells) emit.Emit(c, r);
  });

  job.set_reduce([&grid, &predicate, d](const CellId& cell,
                                        std::span<const RelRect> values,
                                        Job::OutEmitter& out) {
    std::vector<Rect> left_rects, right_rects;
    std::vector<int64_t> left_ids, right_ids;
    for (const RelRect& v : values) {
      if (v.relation == 0) {
        left_rects.push_back(v.rect);
        left_ids.push_back(v.id);
      } else {
        right_rects.push_back(v.rect);
        right_ids.push_back(v.id);
      }
    }
    PlaneSweepJoin(left_rects, right_rects, predicate,
                   [&](int32_t i, int32_t j) {
                     const Rect& l = left_rects[static_cast<size_t>(i)];
                     const Rect& r = right_rects[static_cast<size_t>(j)];
                     const bool owns =
                         predicate.is_overlap()
                             ? OwnsOverlapPair(grid, cell, l, r)
                             : OwnsRangePair(grid, cell, l, r, d);
                     if (owns) {
                       out.Emit({left_ids[static_cast<size_t>(i)],
                                 right_ids[static_cast<size_t>(j)]});
                     }
                   });
  });

  TwoWayJoinOutcome outcome;
  outcome.stats = job.Run(std::span<const RelRect>(input), &outcome.pairs, ctx);
  std::sort(outcome.pairs.begin(), outcome.pairs.end());
  algo_span.AddArg("output_pairs", static_cast<int64_t>(outcome.pairs.size()));
  return outcome;
}

}  // namespace mwsj
