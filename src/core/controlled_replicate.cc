#include "core/controlled_replicate.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/trace.h"
#include "core/dedup.h"
#include "localjoin/rtree.h"
#include "mapreduce/engine.h"
#include "query/bounds.h"

namespace mwsj {

namespace {

// ---------------------------------------------------------------------------
// Round-1 marking.
// ---------------------------------------------------------------------------

// Distance from `r` (inside cell `cell`) to the nearest *other* cell.
// Zero when the rectangle extends beyond (or touches nothing — strictly
// crosses) the closed cell; otherwise the smallest gap to a side of the
// cell that has a neighbor. Infinity on a 1x1 grid, where no foreign cell
// exists.
double ForeignCellDistance(const GridPartition& grid, CellId cell,
                           const Rect& cell_rect, const Rect& r) {
  if (!cell_rect.Contains(r)) return 0;
  double best = std::numeric_limits<double>::infinity();
  const int row = grid.RowOf(cell);
  const int col = grid.ColOf(cell);
  if (col > 0) best = std::min(best, r.min_x() - cell_rect.min_x());
  if (col < grid.cols() - 1) best = std::min(best, cell_rect.max_x() - r.max_x());
  if (row > 0) best = std::min(best, cell_rect.max_y() - r.max_y());
  if (row < grid.rows() - 1) best = std::min(best, r.min_y() - cell_rect.min_y());
  return best;
}

// Evaluates the witness-set search of conditions C1-C3 for one cell.
//
// C2 eligibility of a rectangle depends only on its relation, whether the
// subset requires it to cross the cell boundary (an overlap edge leaves
// the subset) and the smallest d among the range edges that leave it. The
// oracle keeps one eligible-index list per such key and, the first time a
// binding probes it, an R-tree over just those rectangles — the relation's
// full tree, shared, when every rectangle is eligible. Probe candidates
// are therefore eligible by construction and only C1 remains to check.
class MarkingOracle {
 public:
  MarkingOracle(const Query& query, const GridPartition& grid, CellId cell,
                const std::vector<std::vector<LocalRect>>& rects)
      : query_(query), grid_(grid), cell_(cell), rects_(rects) {
    const size_t m = static_cast<size_t>(query.num_relations());
    bool has_range = false;
    for (const JoinCondition& c : query.conditions()) {
      has_range = has_range || c.predicate.is_range();
    }
    const Rect cell_rect = grid_.CellRect(cell_);
    crossing_.resize(m);
    foreign_dist_.resize(m);
    full_trees_.resize(m);
    assigned_.resize(m);
    candidate_buffers_.resize(m);
    for (size_t r = 0; r < m; ++r) {
      const auto& list = rects_[r];
      crossing_[r].resize(list.size());
      if (has_range) foreign_dist_[r].resize(list.size());
      for (size_t i = 0; i < list.size(); ++i) {
        // A rectangle contained in the closed cell cannot meet any
        // rectangle that is disjoint from the closed cell, so "crosses the
        // boundary" is implemented as "not contained in the closed cell" —
        // equivalent to the paper's condition for every configuration that
        // can produce output, and never replicating more.
        crossing_[r][i] = !cell_rect.Contains(list[i].rect);
        if (has_range) {
          foreign_dist_[r][i] =
              ForeignCellDistance(grid_, cell_, cell_rect, list[i].rect);
        }
      }
    }
  }

  /// Returns per-relation flags, index-aligned with the oracle's input:
  /// flag i of relation r is set iff rects[r][i] starts in the cell and
  /// some rectangle-set containing it satisfies C1-C3 there.
  std::vector<std::vector<char>> Mark() {
    // Rectangles starting in another cell are never decided here; they
    // carry kElsewhere until the end so the subset loop skips them along
    // with the rectangles already marked.
    constexpr char kElsewhere = 2;
    const int m = query_.num_relations();
    std::vector<std::vector<char>> marked(static_cast<size_t>(m));
    for (size_t r = 0; r < marked.size(); ++r) {
      marked[r].resize(rects_[r].size());
      for (size_t i = 0; i < rects_[r].size(); ++i) {
        marked[r][i] = grid_.CellOfRect(rects_[r][i].rect) != cell_
                           ? kElsewhere
                           : 0;
      }
    }
    // Subset-major over proper subsets (C3 fails on the full set, whose
    // connected graph leaves no inside/outside condition).
    const uint32_t full = (1u << m) - 1;
    std::vector<int> slots(static_cast<size_t>(m), -1);
    for (uint32_t subset = 1; subset < full; ++subset) {
      if (!ResolveSlots(subset, &slots)) continue;
      for (int fixed = 0; fixed < m; ++fixed) {
        if ((subset & (1u << fixed)) == 0) continue;
        BuildPlan(subset, fixed, slots);
        const size_t f = static_cast<size_t>(fixed);
        // Iterating the fixed relation's eligible list checks the fixed
        // rectangle's C2 before any other work.
        for (const int32_t i : indices_[static_cast<size_t>(slots[f])].ids) {
          char& flag = marked[f][static_cast<size_t>(i)];
          if (flag != 0) continue;
          assigned_[f] = i;
          if (Bind(1)) flag = 1;
        }
      }
    }
    for (auto& flags : marked) {
      for (char& flag : flags) flag = flag == 1 ? 1 : 0;
    }
    return marked;
  }

 private:
  // The rectangles of one relation eligible under one C2 requirement key.
  struct EligibleIndex {
    int rel = 0;
    bool needs_crossing = false;
    double max_foreign_dist = 0;  // +inf when no range edge leaves.
    std::vector<int32_t> ids;
    // Built on first probe over the rectangles of `ids`, so tree slot j is
    // rectangle ids[j]. Points at full_trees_[rel] when `ids` covers the
    // whole relation, else at `own`.
    const RTree* tree = nullptr;
    std::unique_ptr<RTree> own;
  };

  // One relation of a binding plan. Every relation bound earlier is
  // assigned, so its C1 checks are fixed per depth.
  struct Step {
    int rel = 0;
    int slot = 0;
    // Induced conditions to earlier relations, as (condition, other). The
    // first is the one probed through; with none, the relation is
    // disconnected from those bound before it and its eligible list is
    // scanned instead.
    std::vector<std::pair<const JoinCondition*, int>> checks;
  };

  // Maps each relation of `subset` to the eligibility slot of its C2
  // requirements. Returns false when some relation has no eligible
  // rectangle, in which case no witness exists in this subset.
  bool ResolveSlots(uint32_t subset, std::vector<int>* slots) {
    const int m = query_.num_relations();
    for (int r = 0; r < m; ++r) {
      if ((subset & (1u << r)) == 0) continue;
      bool needs_crossing = false;
      double max_foreign_dist = std::numeric_limits<double>::infinity();
      for (int ci : query_.ConditionsOf(r)) {
        const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == r) ? c.right : c.left;
        if ((subset & (1u << other)) != 0) continue;
        if (c.predicate.is_overlap()) {
          needs_crossing = true;
        } else {
          max_foreign_dist =
              std::min(max_foreign_dist, c.predicate.distance());
        }
      }
      const int slot = SlotFor(r, needs_crossing, max_foreign_dist);
      if (indices_[static_cast<size_t>(slot)].ids.empty()) return false;
      (*slots)[static_cast<size_t>(r)] = slot;
    }
    return true;
  }

  int SlotFor(int r, bool needs_crossing, double max_foreign_dist) {
    for (size_t s = 0; s < indices_.size(); ++s) {
      const EligibleIndex& index = indices_[s];
      if (index.rel == r && index.needs_crossing == needs_crossing &&
          index.max_foreign_dist == max_foreign_dist) {
        return static_cast<int>(s);
      }
    }
    EligibleIndex index;
    index.rel = r;
    index.needs_crossing = needs_crossing;
    index.max_foreign_dist = max_foreign_dist;
    const size_t rel = static_cast<size_t>(r);
    const bool range_edge_leaves =
        max_foreign_dist != std::numeric_limits<double>::infinity();
    index.ids.reserve(rects_[rel].size());
    for (size_t i = 0; i < rects_[rel].size(); ++i) {
      if (needs_crossing && !crossing_[rel][i]) continue;
      if (range_edge_leaves && !(foreign_dist_[rel][i] <= max_foreign_dist)) {
        continue;
      }
      index.ids.push_back(static_cast<int32_t>(i));
    }
    indices_.push_back(std::move(index));
    return static_cast<int>(indices_.size() - 1);
  }

  const RTree& TreeOf(EligibleIndex& index) {
    if (index.tree != nullptr) return *index.tree;
    const size_t rel = static_cast<size_t>(index.rel);
    const auto& list = rects_[rel];
    std::vector<Rect> geo;
    if (index.ids.size() == list.size()) {
      if (full_trees_[rel] == nullptr) {
        geo.reserve(list.size());
        for (const LocalRect& lr : list) geo.push_back(lr.rect);
        full_trees_[rel] = std::make_unique<RTree>(geo);
      }
      index.tree = full_trees_[rel].get();
    } else {
      geo.reserve(index.ids.size());
      for (const int32_t i : index.ids) {
        geo.push_back(list[static_cast<size_t>(i)].rect);
      }
      index.own = std::make_unique<RTree>(geo);
      index.tree = index.own.get();
    }
    return *index.tree;
  }

  // Orders the subset's relations for binding with `fixed` first: each
  // next relation is one with an induced condition to an already-ordered
  // relation when one exists (disconnected induced components fall back to
  // eligible-list scans).
  void BuildPlan(uint32_t subset, int fixed, const std::vector<int>& slots) {
    std::vector<int> members;
    members.push_back(fixed);
    for (int r = 0; r < query_.num_relations(); ++r) {
      if (r != fixed && (subset & (1u << r))) members.push_back(r);
    }
    // True when members[j] has an induced condition to members[0, k).
    auto connected = [&](size_t j, size_t k) {
      for (int ci : query_.ConditionsOf(members[j])) {
        const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == members[j]) ? c.right : c.left;
        if (std::find(members.begin(), members.begin() + k, other) !=
            members.begin() + k) {
          return true;
        }
      }
      return false;
    };
    plan_.resize(members.size());
    for (size_t k = 0; k < members.size(); ++k) {
      if (k > 0) {
        size_t pick = k;
        while (pick < members.size() && !connected(pick, k)) ++pick;
        if (pick < members.size()) std::swap(members[k], members[pick]);
      }
      Step& step = plan_[k];
      step.rel = members[k];
      step.slot = slots[static_cast<size_t>(step.rel)];
      step.checks.clear();
      for (int ci : query_.ConditionsOf(step.rel)) {
        const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
        const int other = (c.left == step.rel) ? c.right : c.left;
        if (std::find(members.begin(), members.begin() + k, other) !=
            members.begin() + k) {
          step.checks.emplace_back(&c, other);
        }
      }
    }
  }

  const Rect& AssignedRect(int r) const {
    const size_t rel = static_cast<size_t>(r);
    return rects_[rel][static_cast<size_t>(assigned_[rel])].rect;
  }

  // Extends the assignment of plan_[0, depth) to the whole plan; true when
  // a consistent, eligible assignment exists.
  bool Bind(size_t depth) {
    if (depth == plan_.size()) return true;
    const Step& step = plan_[depth];
    EligibleIndex& index = indices_[static_cast<size_t>(step.slot)];
    const auto& list = rects_[static_cast<size_t>(step.rel)];

    auto try_index = [&](int32_t i) {
      const Rect& rect = list[static_cast<size_t>(i)].rect;
      for (const auto& [c, other] : step.checks) {
        if (!c->predicate.Evaluate(rect, AssignedRect(other))) return false;
      }
      assigned_[static_cast<size_t>(step.rel)] = i;
      return Bind(depth + 1);
    };

    if (step.checks.empty()) {
      // For induced components disconnected from the fixed relation, the
      // first eligible rectangle typically succeeds immediately.
      for (const int32_t i : index.ids) {
        if (try_index(i)) return true;
      }
      return false;
    }
    const RTree& tree = TreeOf(index);
    const auto& [anchor, anchor_rel] = step.checks.front();
    const Rect& anchor_rect = AssignedRect(anchor_rel);
    // Per-depth candidate buffer: the recursion below re-enters Bind, so a
    // single shared list would be clobbered mid-iteration.
    std::vector<int32_t>& candidates = candidate_buffers_[depth];
    candidates.clear();
    if (anchor->predicate.is_overlap()) {
      tree.CollectOverlapping(anchor_rect, &rtree_scratch_, &candidates);
    } else {
      tree.CollectWithinDistance(anchor_rect, anchor->predicate.distance(),
                                 &rtree_scratch_, &candidates);
    }
    for (const int32_t j : candidates) {
      if (try_index(index.ids[static_cast<size_t>(j)])) return true;
    }
    return false;
  }

  const Query& query_;
  const GridPartition& grid_;
  const CellId cell_;
  const std::vector<std::vector<LocalRect>>& rects_;
  std::vector<std::vector<char>> crossing_;
  // Filled only when the query has a range edge.
  std::vector<std::vector<double>> foreign_dist_;
  std::vector<std::unique_ptr<RTree>> full_trees_;
  std::vector<EligibleIndex> indices_;
  // The current (subset, fixed relation) binding plan.
  std::vector<Step> plan_;
  // Probe state reused across every marking decision at this cell. The
  // traversal stack is shared by all depths (a probe completes before the
  // recursion descends); candidate lists are per-depth.
  std::vector<int32_t> assigned_;
  RTree::QueryScratch rtree_scratch_;
  std::vector<std::vector<int32_t>> candidate_buffers_;
};

}  // namespace

std::vector<std::vector<char>> MarkRectanglesForCell(
    const Query& query, const GridPartition& grid, CellId cell,
    const std::vector<std::vector<LocalRect>>& cell_rects) {
  return MarkingOracle(query, grid, cell, cell_rects).Mark();
}

StatusOr<JoinRunResult> ControlledReplicateJoin(
    const Query& query, const GridPartition& grid,
    const std::vector<std::vector<Rect>>& relations,
    const ControlledReplicateOptions& options, const ExecutionContext& ctx) {
  const int m = query.num_relations();
  if (m > 20) {
    return Status::InvalidArgument(
        "Controlled-Replicate supports at most 20 relations (the marking "
        "search enumerates relation subsets)");
  }

  Tracer* const tracer = ctx.tracer;
  TraceSpan algo_span(tracer, options.limit_replication ? "crepl" : "crep",
                      "algorithm");
  algo_span.AddArg("relations", static_cast<int64_t>(m));
  algo_span.AddArg("cells", static_cast<int64_t>(grid.num_cells()));

  JoinRunResult result;

  // Round-1 marking is a resident artifact when a catalog and base key are
  // attached: the marking depends only on (query, grid, datasets) — all
  // pinned by the key — and never on the limit options, so C-Rep and
  // C-Rep-L jobs over the same inputs share one artifact. On a hit the
  // input assembly and the whole split+mark round are skipped.
  const std::string round1_key =
      options.catalog != nullptr && !options.artifact_key.empty()
          ? options.artifact_key + "|crep_round1"
          : std::string();
  std::shared_ptr<const std::vector<MarkedRect>> marked_shared;
  if (!round1_key.empty()) {
    marked_shared = options.catalog->Get<std::vector<MarkedRect>>(round1_key);
    if (marked_shared != nullptr) {
      ++result.stats.catalog_hits;
    } else {
      ++result.stats.catalog_misses;
    }
  }

  // Per-relation replication bounds for C-Rep-L, from the data's diagonal
  // upper bounds and the join graph (§7.9, §8, footnote 3).
  std::vector<double> limit_bounds;
  std::vector<RelRect> input;
  {
    TraceSpan setup_span(tracer, "crep_setup", "stage");
    if (options.limit_replication) {
      std::vector<double> diagonals(static_cast<size_t>(m), 0.0);
      for (int r = 0; r < m; ++r) {
        for (const Rect& rect : relations[static_cast<size_t>(r)]) {
          diagonals[static_cast<size_t>(r)] =
              std::max(diagonals[static_cast<size_t>(r)], rect.Diagonal());
        }
      }
      limit_bounds = ComputeReplicationBounds(query, diagonals);
    }

    if (marked_shared == nullptr) {
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
    }
    setup_span.AddArg("input_records", static_cast<int64_t>(input.size()));
  }

  // -------------------------------------------------------------------
  // Round 1: split everything; reducers mark the rectangles that start in
  // their cell and must be replicated.
  // -------------------------------------------------------------------
  using Round1 = MapReduceJob<RelRect, CellId, RelRect, MarkedRect>;
  Round1 round1("crep_round1_mark", grid.num_cells());
  round1.set_partition([](const CellId& c) { return static_cast<int>(c); });
  round1.set_map([&grid](const RelRect& r, Round1::Emitter& emit) {
    std::vector<CellId>& cells = emit.ScratchKeys();
    SplitCells(grid, r.rect, &cells);
    for (CellId c : cells) emit.Emit(c, r);
  });
  round1.set_reduce([&grid, &query, m](const CellId& cell,
                                       std::span<const RelRect> values,
                                       Round1::OutEmitter& out) {
    std::vector<std::vector<LocalRect>> per_relation(static_cast<size_t>(m));
    for (const RelRect& v : values) {
      per_relation[static_cast<size_t>(v.relation)].push_back(
          LocalRect{v.rect, v.id});
    }
    const std::vector<std::vector<char>> marked =
        MarkRectanglesForCell(query, grid, cell, per_relation);
    // Emit each rectangle exactly once, from its start cell. `next[r]`
    // walks relation r's flags in the order per_relation was filled.
    std::vector<size_t> next(static_cast<size_t>(m), 0);
    for (const RelRect& v : values) {
      const size_t r = static_cast<size_t>(v.relation);
      const bool is_marked = marked[r][next[r]++] != 0;
      if (grid.CellOfRect(v.rect) != cell) continue;
      out.Emit(MarkedRect{v.rect, v.id, v.relation, is_marked});
    }
  });

  {
    TraceSpan round_span(tracer, "crep_round1", "stage");
    if (marked_shared != nullptr) {
      // Resident marking: the round is a lookup, not a job.
      round_span.AddArg("cached", int64_t{1});
      int64_t marked_count = 0;
      for (const MarkedRect& r : *marked_shared) {
        marked_count += r.marked ? 1 : 0;
      }
      round_span.AddArg("marked_records", marked_count);
    } else {
      std::vector<MarkedRect> marked_rects;
      JobStats round1_stats =
          round1.Run(std::span<const RelRect>(input), &marked_rects, ctx);
      round_span.AddArg("split_calls", round1_stats.work.split_calls);
      result.stats.Add(std::move(round1_stats));
      int64_t marked_count = 0;
      for (const MarkedRect& r : marked_rects) {
        marked_count += r.marked ? 1 : 0;
      }
      round_span.AddArg("marked_records", marked_count);
      auto built = std::make_shared<const std::vector<MarkedRect>>(
          std::move(marked_rects));
      // First-wins Put: a concurrent identical job may have stored the
      // artifact already; every consumer then shares the resident copy.
      marked_shared =
          round1_key.empty()
              ? built
              : options.catalog->Put<std::vector<MarkedRect>>(round1_key,
                                                              built);
    }
  }

  // -------------------------------------------------------------------
  // Round 2: replicate marked / project unmarked; join; §6.2 dedup.
  // -------------------------------------------------------------------
  using Round2 = MapReduceJob<MarkedRect, CellId, RelRect, IdTuple>;
  Round2 round2(options.limit_replication ? "crepl_round2_join"
                                          : "crep_round2_join",
                grid.num_cells());
  round2.set_partition([](const CellId& c) { return static_cast<int>(c); });

  const bool limit = options.limit_replication;
  const DistanceMetric metric = options.limit_metric;
  // Replication tallies go through the emitter's attempt-local counters,
  // not captured atomics: a re-executed map attempt under fault injection
  // would double-count an atomic, while discarded-attempt emitter deltas
  // are dropped with the attempt.
  round2.set_map([&grid, &limit_bounds, limit, metric](
                     const MarkedRect& r, Round2::Emitter& emit) {
    const RelRect payload{r.rect, r.id, r.relation};
    if (!r.marked) {
      emit.Emit(ProjectCell(grid, r.rect), payload);
      return;
    }
    std::vector<CellId>& cells = emit.ScratchKeys();
    if (limit) {
      ReplicateF2Cells(grid, r.rect,
                       limit_bounds[static_cast<size_t>(r.relation)], metric,
                       &cells);
    } else {
      ReplicateF1Cells(grid, r.rect, &cells);
    }
    emit.IncrementCounter(kCounterRectanglesReplicated, 1);
    emit.IncrementCounter(kCounterReplicationCopies,
                          static_cast<int64_t>(cells.size()));
    for (CellId c : cells) emit.Emit(c, payload);
  });

  const bool count_only = options.count_only;
  round2.set_reduce([&grid, &query, m, count_only, tracer](
                        const CellId& cell, std::span<const RelRect> values,
                        Round2::OutEmitter& out) {
    TraceSpan local_span(tracer, "local_join", "task");
    local_span.AddArg("cell", static_cast<int64_t>(cell));
    local_span.AddArg("records", static_cast<int64_t>(values.size()));
    std::vector<std::vector<LocalRect>> per_relation(static_cast<size_t>(m));
    for (const RelRect& v : values) {
      per_relation[static_cast<size_t>(v.relation)].push_back(
          LocalRect{v.rect, v.id});
    }
    std::vector<std::span<const LocalRect>> spans;
    spans.reserve(per_relation.size());
    for (const auto& rel : per_relation) {
      spans.emplace_back(rel.data(), rel.size());
    }
    // Prune before enumerating: a prefix no completion of which this cell
    // can own is skipped whole instead of being built and rejected below.
    const PrefixOwnershipFilter may_own(query, grid, cell, spans);
    MultiwayLocalJoin local(query, std::move(spans));
    std::vector<const Rect*> member_rects(static_cast<size_t>(m));
    int64_t counted = 0;
    auto emit_owned = [&](const std::vector<const LocalRect*>& members) {
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
    };
    local.Execute(emit_owned, may_own);
    if (counted > 0) out.IncrementCounter(kCounterTuplesCounted, counted);
  });

  TraceSpan round2_span(tracer, "crep_round2", "stage");
  JobStats round2_stats = round2.Run(
      std::span<const MarkedRect>(*marked_shared), &result.tuples, ctx);
  const WorkCounters& work = round2_stats.work;
  round2_span.AddArg("project_calls", work.project_calls);
  round2_span.AddArg("replicate_f1_calls", work.replicate_f1_calls);
  round2_span.AddArg("replicate_f2_calls", work.replicate_f2_calls);
  round2_span.AddArg("dedup_tuple_checks", work.tuple_checks);
  round2_span.AddArg("dedup_owned", work.owned);
  round2_span.End();
  // Unmarked rectangles never touch the replicated/copies counters, so
  // make them explicit zeros for stable stats output.
  round2_stats.user_counters.try_emplace(kCounterRectanglesReplicated, 0);
  round2_stats.user_counters.try_emplace(kCounterReplicationCopies, 0);
  // The paper's "number of rectangles after replication" (§7.8.3) counts
  // rectangles received by the join round's reducers — the round-2
  // intermediate records: one copy per projected rectangle plus every
  // replicated copy (this is what makes Table 2's C-Rep column ~= nI plus
  // a small replication overhead).
  round2_stats.user_counters[kCounterRectanglesAfterReplication] =
      round2_stats.intermediate_records;
  result.num_tuples = count_only
                          ? round2_stats.user_counters[kCounterTuplesCounted]
                          : static_cast<int64_t>(result.tuples.size());
  if (count_only) {
    // Keep the cost model honest: counted tuples would still have been
    // written by a real job.
    round2_stats.reduce_output_records = result.num_tuples;
    round2_stats.reduce_output_bytes = result.num_tuples * (8 * (m + 1));
  }
  result.stats.Add(std::move(round2_stats));

  {
    TraceSpan sort_span(tracer, "sort_tuples", "stage");
    sort_span.AddArg("tuples", static_cast<int64_t>(result.tuples.size()));
    SortTuples(&result.tuples);
  }
  algo_span.AddArg("output_tuples", result.num_tuples);
  return result;
}

}  // namespace mwsj
