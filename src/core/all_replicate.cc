#include "core/all_replicate.h"

#include "common/trace.h"
#include "core/dedup.h"
#include "grid/transform.h"
#include "mapreduce/engine.h"

namespace mwsj {

StatusOr<JoinRunResult> AllReplicateJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations, bool count_only,
    const ExecutionContext& ctx) {
  Tracer* const tracer = ctx.tracer;
  TraceSpan algo_span(tracer, "all_replicate", "algorithm");
  algo_span.AddArg("relations", static_cast<int64_t>(query.num_relations()));
  algo_span.AddArg("cells", static_cast<int64_t>(grid.num_cells()));

  std::vector<RelRect> input;
  {
    size_t total = 0;
    for (const auto& rel : relations) total += rel.size();
    input.reserve(total);
  }
  for (size_t r = 0; r < relations.size(); ++r) {
    for (size_t i = 0; i < relations[r].size(); ++i) {
      input.push_back(RelRect{relations[r][i], static_cast<int64_t>(i),
                              static_cast<int32_t>(r)});
    }
  }

  using Job = MapReduceJob<RelRect, CellId, RelRect, IdTuple>;
  Job job("all_replicate", grid.num_cells());
  job.set_partition([](const CellId& c) { return static_cast<int>(c); });

  job.set_map([&grid](const RelRect& r, Job::Emitter& emit) {
    std::vector<CellId>& cells = emit.ScratchKeys();
    ReplicateF1Cells(grid, r.rect, &cells);
    for (CellId c : cells) emit.Emit(c, r);
  });

  const int m = query.num_relations();
  job.set_reduce([&grid, &query, m, count_only, tracer](
                     const CellId& cell, std::span<const RelRect> values,
                     Job::OutEmitter& out) {
    TraceSpan local_span(tracer, "local_join", "task");
    local_span.AddArg("cell", static_cast<int64_t>(cell));
    local_span.AddArg("records", static_cast<int64_t>(values.size()));
    std::vector<std::vector<LocalRect>> per_relation(
        static_cast<size_t>(m));
    for (const RelRect& v : values) {
      per_relation[static_cast<size_t>(v.relation)].push_back(
          LocalRect{v.rect, v.id});
    }
    std::vector<std::span<const LocalRect>> spans;
    spans.reserve(per_relation.size());
    for (const auto& rel : per_relation) {
      spans.emplace_back(rel.data(), rel.size());
    }
    MultiwayLocalJoin local(query, std::move(spans));
    std::vector<const Rect*> member_rects(static_cast<size_t>(m));
    int64_t counted = 0;
    local.Execute([&](const std::vector<const LocalRect*>& members) {
      for (int r = 0; r < m; ++r) {
        member_rects[static_cast<size_t>(r)] =
            &members[static_cast<size_t>(r)]->rect;
      }
      if (!OwnsTuple(grid, cell, member_rects)) return;
      if (count_only) {
        ++counted;
        return;
      }
      IdTuple ids(static_cast<size_t>(m));
      for (int r = 0; r < m; ++r) {
        ids[static_cast<size_t>(r)] = members[static_cast<size_t>(r)]->id;
      }
      out.Emit(std::move(ids));
    });
    // Attempt-scoped counter (not a captured atomic): a reduce attempt
    // re-executed under fault injection must not double-count.
    if (counted > 0) out.IncrementCounter(kCounterTuplesCounted, counted);
  });

  JoinRunResult result;
  JobStats stats = job.Run(std::span<const RelRect>(input), &result.tuples, ctx);
  algo_span.AddArg("replicate_f1_calls", stats.work.replicate_f1_calls);
  algo_span.AddArg("dedup_tuple_checks", stats.work.tuple_checks);
  algo_span.AddArg("dedup_owned", stats.work.owned);
  stats.user_counters[kCounterRectanglesReplicated] =
      static_cast<int64_t>(input.size());
  // The paper's "number of rectangles after replication" (§7.8.3) counts
  // rectangles received by reducers in the join round — here, every f1
  // copy, i.e. the job's intermediate records.
  stats.user_counters[kCounterRectanglesAfterReplication] =
      stats.intermediate_records;
  stats.user_counters[kCounterReplicationCopies] = stats.intermediate_records;
  result.num_tuples = count_only
                          ? stats.user_counters[kCounterTuplesCounted]
                          : static_cast<int64_t>(result.tuples.size());
  if (count_only) {
    // Keep the cost model honest: counted tuples would still have been
    // written by a real job.
    stats.reduce_output_records = result.num_tuples;
    stats.reduce_output_bytes =
        result.num_tuples * (8 * (query.num_relations() + 1));
  }
  result.stats.Add(std::move(stats));
  {
    TraceSpan sort_span(tracer, "sort_tuples", "stage");
    SortTuples(&result.tuples);
  }
  algo_span.AddArg("output_tuples", result.num_tuples);
  return result;
}

}  // namespace mwsj
