// Prefix pruning of the multi-way local join (PrefixOwnershipFilter): the
// filter may skip only subtrees the §6.2 rule would reject, so every owned
// tuple, and the order it is emitted in, must survive. Checked at the
// kernel (arbitrary local data at a cell) and end to end (C-Rep and C-Rep-L
// against brute force on worlds built to hit the filter's edge cases).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/dedup.h"
#include "core/runner.h"
#include "datagen/california.h"
#include "localjoin/brute_force.h"
#include "localjoin/multiway.h"
#include "query/parser.h"

namespace mwsj {
namespace {

// Query graphs over 2–5 relations: chains, stars and cycles with overlap,
// range (small and large d) and hybrid edges.
const char* const kQueries[] = {
    "A OV B",
    "A RA(7) B",
    "A OV B AND B OV C",
    "A RA(30) B AND B RA(30) C",
    "A OV B AND B RA(12) C",
    "A OV B AND B OV C AND C OV A",
    "A RA(4) B AND B OV C AND C RA(9) A",
    "A OV B AND B OV C AND C OV D",
    "A RA(60) B AND B RA(60) C AND C RA(60) D",
    "A OV B AND A OV C AND A RA(10) D",
    "A OV B AND B RA(5) C AND C OV D AND D RA(5) E",
    "A OV B AND B OV C AND C OV D AND D OV E",
    "A OV B AND A OV C AND A OV D AND A OV E",
    "A OV B AND B OV C AND C OV D AND D OV A",
};

Query Parse(const char* text) {
  StatusOr<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return std::move(q).value();
}

// Rectangles over [0, 100]^2, `count` per relation, sizes up to `max_dim`
// steps of 5, clipped to the space. On the lattice (step 5) start points
// fall exactly on the 4x4 and 5x5 grid lines and neighbours touch edge to
// edge; off it, coordinates are continuous, so reach bounds land anywhere
// between grid lines.
std::vector<std::vector<Rect>> World(int relations,
                                     const std::vector<int>& count,
                                     int max_dim, bool lattice,
                                     uint64_t seed) {
  Rng rng(seed);
  auto coord = [&](int lo, int hi) {
    return lattice ? 5.0 * static_cast<double>(rng.UniformInt(lo, hi))
                   : rng.Uniform(5.0 * lo, 5.0 * hi);
  };
  std::vector<std::vector<Rect>> data(static_cast<size_t>(relations));
  for (int r = 0; r < relations; ++r) {
    for (int i = 0; i < count[static_cast<size_t>(r)]; ++i) {
      const double x = coord(0, 19);
      const double y = coord(1, 20);
      const double l = std::min(100 - x, coord(0, max_dim));
      const double b = std::min(y, coord(0, max_dim));
      data[static_cast<size_t>(r)].push_back(Rect::FromXYLB(x, y, l, b));
    }
  }
  return data;
}

// Relation sizes for one trial: one relation (rotating with the trial) is
// tiny, so the binding order starts from it; the rest are larger.
std::vector<int> TrialSizes(int relations, int trial) {
  std::vector<int> sizes(static_cast<size_t>(relations));
  for (int r = 0; r < relations; ++r) {
    sizes[static_cast<size_t>(r)] =
        (r == trial % relations) ? 1 + trial % 3 : 12 + (7 * r + trial) % 20;
  }
  return sizes;
}

TEST(PrefixOwnershipFilterTest, KeepsEveryOwnedTupleInEmitOrder) {
  // The filter's soundness needs no property of the routing, so feed it
  // arbitrary local data: every relation's rectangles anywhere in the
  // space, for every cell of the grid. The owned stream with the filter
  // must equal the owned stream without it, tuple for tuple.
  const auto grid =
      GridPartition::Create(Rect(0, 0, 100, 100), 4, 4).value();
  int64_t pruned_somewhere = 0;
  int trial = 0;
  for (const char* text : kQueries) {
    const Query query = Parse(text);
    const int m = query.num_relations();
    for (int rep = 0; rep < 4; ++rep, ++trial) {
      const auto data =
          World(m, TrialSizes(m, trial), 1 + (rep % 2) * 3, rep < 2,
                static_cast<uint64_t>(trial) * 101 + 7);
      std::vector<std::vector<LocalRect>> local(static_cast<size_t>(m));
      for (int r = 0; r < m; ++r) {
        const auto& rel = data[static_cast<size_t>(r)];
        for (size_t i = 0; i < rel.size(); ++i) {
          local[static_cast<size_t>(r)].push_back(
              LocalRect{rel[i], static_cast<int64_t>(i)});
        }
      }
      std::vector<std::span<const LocalRect>> spans;
      for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
      const MultiwayLocalJoin join(query, spans);
      for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
        const PrefixOwnershipFilter may_own(query, grid, cell, spans);
        std::vector<const Rect*> members(static_cast<size_t>(m));
        auto owned_into = [&](std::vector<IdTuple>* out) {
          return [&, out](const std::vector<const LocalRect*>& tuple) {
            IdTuple ids;
            for (int r = 0; r < m; ++r) {
              members[static_cast<size_t>(r)] =
                  &tuple[static_cast<size_t>(r)]->rect;
              ids.push_back(tuple[static_cast<size_t>(r)]->id);
            }
            if (OwnsTuple(grid, cell, members)) out->push_back(ids);
          };
        };
        std::vector<IdTuple> plain;
        std::vector<IdTuple> filtered;
        join.Execute(owned_into(&plain));
        int64_t rejected = 0;
        join.Execute(owned_into(&filtered),
                     [&](const std::vector<const LocalRect*>& partial) {
                       const bool keep = may_own(partial);
                       rejected += keep ? 0 : 1;
                       return keep;
                     });
        EXPECT_EQ(filtered, plain)
            << text << " trial " << trial << " cell " << cell;
        pruned_somewhere += rejected;
      }
    }
  }
  EXPECT_GT(pruned_somewhere, 0) << "the worlds never exercised a rejection";
}

TEST(PrefixOwnershipFilterTest, RejectsOnlyWhatNoMemberCanReach) {
  // Hand-built 2x2 grid over [0, 10]^2, cell 3 = bottom-right (column 1,
  // row 1): its left line is x = 5, its top line y = 5. A OV B.
  const auto grid = GridPartition::Create(Rect(0, 0, 10, 10), 2, 2).value();
  const Query query = Parse("A OV B");
  const std::vector<LocalRect> a = {{Rect(1, 6, 2, 9), 0}};
  std::vector<LocalRect> b = {{Rect(1.5, 6.5, 4, 8), 0}};
  std::vector<std::span<const LocalRect>> spans = {a, b};
  const LocalRect* partial_a[] = {&a[0], nullptr};
  // B's widest start x is 1.5 <= 5: nothing can start in column 1.
  EXPECT_FALSE(PrefixOwnershipFilter(query, grid, 3, spans).MayOwn(partial_a));
  // Cell 0 (top-left) owns whatever starts there: always reachable.
  EXPECT_TRUE(PrefixOwnershipFilter(query, grid, 0, spans).MayOwn(partial_a));
  // A B rectangle starting right of x = 5 cannot overlap A (max_x 2): the
  // path bound A.max_x + 0 = 2 still rules the column out.
  b.push_back({Rect(6, 1, 7, 4), 1});
  spans = {a, b};
  EXPECT_FALSE(PrefixOwnershipFilter(query, grid, 3, spans).MayOwn(partial_a));
  // Against the first B alone (which reaches neither line): an A starting
  // exactly on x = 5 is in column 0, since the line belongs to the left
  // cell; one just right of it and below y = 5 is in cell 3 itself; one
  // right of x = 5 but starting on y = 5 is in row 0.
  b.pop_back();
  spans = {a, b};
  const PrefixOwnershipFilter cell3(query, grid, 3, spans);
  const std::vector<LocalRect> a_starts = {{Rect(5, 4, 6, 4.5), 1},
                                           {Rect(5.5, 4, 6, 4.5), 2},
                                           {Rect(5.5, 4, 6, 5), 3}};
  const bool want[] = {false, true, false};
  for (size_t i = 0; i < a_starts.size(); ++i) {
    const LocalRect* partial[] = {&a_starts[i], nullptr};
    EXPECT_EQ(cell3.MayOwn(partial), want[i]) << a_starts[i].rect.ToString();
  }
}

TEST(PrefixOwnershipFilterTest, RangeEdgesWidenTheReachByD) {
  // A RA(d) B at cell 3 of the 2x2 grid: A ends at x = 2, so B may start
  // up to 2 + d. With d = 2.9 the column (x > 5) is out of reach; with
  // d = 3.5 it is in reach, and B's rectangle at x = 5.5 could complete it.
  const auto grid = GridPartition::Create(Rect(0, 0, 10, 10), 2, 2).value();
  const std::vector<LocalRect> a = {{Rect(1, 1, 2, 4), 0}};
  const std::vector<LocalRect> b = {{Rect(5.5, 1, 6, 4), 0}};
  const std::vector<std::span<const LocalRect>> spans = {a, b};
  const LocalRect* partial_a[] = {&a[0], nullptr};
  EXPECT_FALSE(PrefixOwnershipFilter(Parse("A RA(2.9) B"), grid, 3, spans)
                   .MayOwn(partial_a));
  EXPECT_TRUE(PrefixOwnershipFilter(Parse("A RA(3.5) B"), grid, 3, spans)
                  .MayOwn(partial_a));
  // Through an intermediate relation C the widest C rectangle adds its
  // width: A RA(1) C OV B with a 1.9-wide C reaches 2 + 1 + 1.9 = 4.9,
  // short of the line; a 2.6-wide C reaches 5.6. Relations are numbered
  // in order of appearance: A = 0, C = 1, B = 2.
  const Query chain = Parse("A RA(1) C AND C OV B");
  for (const double width : {1.9, 2.6}) {
    const std::vector<LocalRect> c = {{Rect(0, 1, width, 2), 0}};
    const std::vector<std::span<const LocalRect>> acb = {a, c, b};
    const LocalRect* bound_a[] = {&a[0], nullptr, nullptr};
    EXPECT_EQ(PrefixOwnershipFilter(chain, grid, 3, acb).MayOwn(bound_a),
              width > 2)
        << "width " << width;
  }
  // The row mirrors it: an A in cell 3's column but above its row (A.min_y
  // = 7) lets B start no lower than 7 - d, so B reaches below y = 5 only
  // when d > 2.
  const std::vector<LocalRect> a_above = {{Rect(6, 7, 7, 9), 0}};
  const std::vector<LocalRect> b_below = {{Rect(6, 1, 7, 4), 0}};
  const std::vector<std::span<const LocalRect>> rows = {a_above, b_below};
  const LocalRect* bound_above[] = {&a_above[0], nullptr};
  EXPECT_FALSE(PrefixOwnershipFilter(Parse("A RA(1.9) B"), grid, 3, rows)
                   .MayOwn(bound_above));
  EXPECT_TRUE(PrefixOwnershipFilter(Parse("A RA(2.5) B"), grid, 3, rows)
                  .MayOwn(bound_above));
}

RunnerOptions GridOptions(Algorithm algorithm, int rows, int cols,
                          Partitioning partitioning) {
  RunnerOptions options;
  options.algorithm = algorithm;
  options.grid_rows = rows;
  options.grid_cols = cols;
  options.partitioning = partitioning;
  options.space = Rect(0, 0, 100, 100);
  return options;
}

TEST(PrefixPruneEndToEndTest, CRepFamilyMatchesBruteForceOnEdgeWorlds) {
  // Start points on grid lines, edge-to-edge contact, large range d,
  // hybrid edges, 2–5 relations, and a rotating tiny relation that the
  // binding order picks first — at most cells its rectangles are
  // replicated copies from other cells.
  const int grids[][2] = {{4, 4}, {5, 5}, {1, 4}, {3, 2}};
  int trial = 0;
  for (const char* text : kQueries) {
    const Query query = Parse(text);
    const int m = query.num_relations();
    for (int rep = 0; rep < 4; ++rep, ++trial) {
      const auto data =
          World(m, TrialSizes(m, trial), 1 + (rep % 2) * 4, rep != 2,
                static_cast<uint64_t>(trial) * 977 + 3);
      const std::vector<IdTuple> expected = BruteForceJoin(query, data);
      const auto& g = grids[rep];
      for (const Algorithm algorithm :
           {Algorithm::kControlledReplicate,
            Algorithm::kControlledReplicateInLimit}) {
        const RunnerOptions options = GridOptions(
            algorithm, g[0], g[1],
            rep == 3 ? Partitioning::kEquiDepth : Partitioning::kUniform);
        const StatusOr<JoinRunResult> result =
            RunSpatialJoin(query, data, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result.value().tuples, expected)
            << AlgorithmName(algorithm) << " on " << text << " trial "
            << trial << " grid " << g[0] << "x" << g[1];
      }
    }
  }
}

// Round-2 work of one C-Rep-family run on a fixed road-like world.
WorkCounters Round2Work(Algorithm algorithm, const Query& query,
                        const std::vector<std::vector<Rect>>& data) {
  RunnerOptions options;
  options.algorithm = algorithm;
  options.grid_rows = 4;
  options.grid_cols = 4;
  options.count_only = true;
  const StatusOr<JoinRunResult> result = RunSpatialJoin(query, data, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stats.jobs.size(), 2u);
  return result.value().stats.jobs.back().work;
}

TEST(PrefixPruneEndToEndTest, CRepRound2ChecksTheSameTuplesAsCRepL) {
  // C-Rep replicates marked rectangles to the whole fourth quadrant, C-Rep-L
  // only within the query's distance bound. Unpruned, C-Rep enumerated the
  // far copies' tuples and threw them away (5,183 checks for 4,744 owned
  // here); pruned, it examines exactly the 4,793 tuples C-Rep-L does.
  CaliforniaParams params;
  params.num_roads = 4000;
  params.seed = 7;
  const std::vector<Rect> roads = GenerateCaliforniaRoads(params);
  const Query query = Parse("A OV B AND B OV C");
  const std::vector<std::vector<Rect>> data = {roads, roads, roads};
  const WorkCounters crep = Round2Work(Algorithm::kControlledReplicate,
                                       query, data);
  const WorkCounters crepl = Round2Work(
      Algorithm::kControlledReplicateInLimit, query, data);
  EXPECT_EQ(crep.owned, 4744);
  EXPECT_EQ(crepl.owned, 4744);
  EXPECT_EQ(crep.tuple_checks, 4793);
  EXPECT_EQ(crepl.tuple_checks, 4793);
}

}  // namespace
}  // namespace mwsj
