// Property test for the C-Rep round-1 marking decision: the production
// oracle (subset-major search over eligible-only R-trees) must agree with
// an exponential, literal transcription of conditions C1-C3 on randomized
// reducer inputs, for overlap, range and hybrid queries, for chain and
// cyclic shapes, and on cells where every or no rectangle crosses.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "core/controlled_replicate.h"
#include "testing/world.h"

namespace mwsj {
namespace {

// Literal reference implementation of §7.4/§8/§9: a rectangle is marked
// iff SOME rectangle-set containing it satisfies C1 (consistent), C2
// (boundary-edge members cross / have a foreign cell within d) and C3 (at
// least one inside/outside condition). Enumerates every subset of
// relations and every assignment — exponential, only for tiny inputs.
class ReferenceMarker {
 public:
  ReferenceMarker(const Query& query, const GridPartition& grid, CellId cell,
                  const std::vector<std::vector<LocalRect>>& rects)
      : query_(query), grid_(grid), cell_(cell), rects_(rects) {}

  bool IsMarked(int rel, size_t idx) const {
    const int m = query_.num_relations();
    for (uint32_t subset = 1; subset < (1u << m) - 1; ++subset) {
      if ((subset & (1u << rel)) == 0) continue;
      std::vector<int> members;
      for (int r = 0; r < m; ++r) {
        if (subset & (1u << r)) members.push_back(r);
      }
      std::vector<int64_t> assignment(members.size(), -1);
      if (TryAssign(subset, members, 0, rel, static_cast<int64_t>(idx),
                    assignment)) {
        return true;
      }
    }
    return false;
  }

 private:
  bool CrossesBoundary(const Rect& r) const {
    // Paper: overlaps a partition-cell other than `cell_`. With closed
    // cells this is equivalent to extending beyond the closed cell.
    return !grid_.CellRect(cell_).Contains(r);
  }

  bool HasForeignCellWithin(const Rect& r, double d) const {
    for (CellId c = 0; c < grid_.num_cells(); ++c) {
      if (c == cell_) continue;
      if (grid_.DistanceToCell(c, r) <= d) return true;
    }
    return false;
  }

  bool SatisfiesC2(uint32_t subset, int rel, const Rect& rect) const {
    for (int ci : query_.ConditionsOf(rel)) {
      const JoinCondition& c = query_.conditions()[static_cast<size_t>(ci)];
      const int other = (c.left == rel) ? c.right : c.left;
      if (subset & (1u << other)) continue;  // Internal condition.
      if (c.predicate.is_overlap()) {
        if (!CrossesBoundary(rect)) return false;
      } else {
        if (!HasForeignCellWithin(rect, c.predicate.distance())) return false;
      }
    }
    return true;
  }

  bool Consistent(uint32_t subset, const std::vector<int>& members,
                  const std::vector<int64_t>& assignment) const {
    for (const JoinCondition& c : query_.conditions()) {
      if ((subset & (1u << c.left)) == 0 || (subset & (1u << c.right)) == 0) {
        continue;
      }
      const Rect* left = nullptr;
      const Rect* right = nullptr;
      for (size_t k = 0; k < members.size(); ++k) {
        if (members[k] == c.left && assignment[k] >= 0) {
          left = &rects_[static_cast<size_t>(c.left)]
                        [static_cast<size_t>(assignment[k])]
                            .rect;
        }
        if (members[k] == c.right && assignment[k] >= 0) {
          right = &rects_[static_cast<size_t>(c.right)]
                         [static_cast<size_t>(assignment[k])]
                             .rect;
        }
      }
      if (left && right && !c.predicate.Evaluate(*left, *right)) return false;
    }
    return true;
  }

  bool TryAssign(uint32_t subset, const std::vector<int>& members,
                 size_t depth, int fixed_rel, int64_t fixed_idx,
                 std::vector<int64_t>& assignment) const {
    if (depth == members.size()) {
      // C3: at least one inside/outside condition must exist.
      bool has_boundary_condition = false;
      for (const JoinCondition& c : query_.conditions()) {
        const bool left_in = subset & (1u << c.left);
        const bool right_in = subset & (1u << c.right);
        if (left_in != right_in) has_boundary_condition = true;
      }
      return has_boundary_condition;
    }
    const int r = members[depth];
    const auto& list = rects_[static_cast<size_t>(r)];
    for (size_t i = 0; i < list.size(); ++i) {
      if (r == fixed_rel && static_cast<int64_t>(i) != fixed_idx) continue;
      if (!SatisfiesC2(subset, r, list[i].rect)) continue;
      assignment[depth] = static_cast<int64_t>(i);
      if (Consistent(subset, members, assignment) &&
          TryAssign(subset, members, depth + 1, fixed_rel, fixed_idx,
                    assignment)) {
        return true;
      }
      assignment[depth] = -1;
    }
    return false;
  }

  const Query& query_;
  const GridPartition& grid_;
  const CellId cell_;
  const std::vector<std::vector<LocalRect>>& rects_;
};

// Checks MarkRectanglesForCell against the reference at every cell of
// `grid` and returns the number of marked rectangles.
int ExpectMatchesReference(const Query& query, const GridPartition& grid,
                           const std::vector<std::vector<Rect>>& data,
                           int seed) {
  int total_marked = 0;
  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    // The reducer's view after Split.
    std::vector<std::vector<LocalRect>> cell_rects(data.size());
    for (size_t r = 0; r < data.size(); ++r) {
      for (size_t i = 0; i < data[r].size(); ++i) {
        if (Overlaps(data[r][i], grid.CellRect(cell))) {
          cell_rects[r].push_back(
              LocalRect{data[r][i], static_cast<int64_t>(i)});
        }
      }
    }

    const std::vector<std::vector<char>> marked =
        MarkRectanglesForCell(query, grid, cell, cell_rects);
    if (marked.size() != cell_rects.size()) {
      ADD_FAILURE() << "flags for " << marked.size() << " relations";
      return total_marked;
    }
    const ReferenceMarker reference(query, grid, cell, cell_rects);
    for (size_t r = 0; r < cell_rects.size(); ++r) {
      if (marked[r].size() != cell_rects[r].size()) {
        ADD_FAILURE() << "relation " << r << " has " << marked[r].size()
                      << " flags for " << cell_rects[r].size() << " rects";
        continue;
      }
      for (size_t i = 0; i < cell_rects[r].size(); ++i) {
        const bool expected =
            grid.CellOfRect(cell_rects[r][i].rect) == cell &&
            reference.IsMarked(static_cast<int>(r), i);
        EXPECT_EQ(marked[r][i] != 0, expected)
            << "relation " << r << " rectangle " << cell_rects[r][i].id
            << " at cell " << cell << " seed " << seed;
        total_marked += expected ? 1 : 0;
      }
    }
  }
  return total_marked;
}

GridPartition Grid3x3() {
  return GridPartition::Create(Rect(0, 0, 100, 100), 3, 3).value();
}

testing::WorldConfig TinyWorld(int mix_index, int seed) {
  testing::WorldConfig config;
  config.mix = static_cast<testing::PredicateMix>(mix_index);
  config.range_d = 10.0;
  config.max_rects_per_relation = 8;  // Tiny: the reference is exponential.
  config.max_dim = 45.0;
  config.seed = static_cast<uint64_t>(seed) * 131 + 7;
  return config;
}

class MarkingOraclePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};
// Params: (predicate mix index, seed).

TEST_P(MarkingOraclePropertyTest, MatchesLiteralConditions) {
  const int seed = std::get<1>(GetParam());
  const testing::WorldConfig config = TinyWorld(std::get<0>(GetParam()), seed);
  const Query query = testing::MakeWorldQuery(config);
  ExpectMatchesReference(query, Grid3x3(),
                         testing::MakeWorldData(config, query.num_relations()),
                         seed);
}

INSTANTIATE_TEST_SUITE_P(Mixes, MarkingOraclePropertyTest,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 10)));

// Every rectangle is wider than a cell, so none fits in any cell: every
// rectangle crosses, every overlap requirement keeps the whole relation
// eligible, and the eligibility keys share each relation's full tree.
TEST_P(MarkingOraclePropertyTest, EveryRectangleCrosses) {
  const int seed = std::get<1>(GetParam());
  const testing::WorldConfig config = TinyWorld(std::get<0>(GetParam()), seed);
  const Query query = testing::MakeWorldQuery(config);
  const GridPartition grid = Grid3x3();
  Rng rng(config.seed);
  std::vector<std::vector<Rect>> data(3);
  for (auto& relation : data) {
    const int n = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < n; ++i) {
      const double l = rng.Uniform(34, 60);
      const double b = rng.Uniform(1, 20);
      relation.push_back(Rect::FromXYLB(rng.Uniform(0, 100 - l),
                                        rng.Uniform(b, 100), l, b));
    }
  }
  const int marked = ExpectMatchesReference(query, grid, data, seed);
  if (config.mix == testing::PredicateMix::kOverlapOnly) {
    // Any rectangle with an overlapping partner is a witness by itself.
    EXPECT_GT(marked, 0) << "seed " << seed;
  }
}

// Every rectangle lies strictly inside one cell, away from its sides: no
// rectangle crosses, so overlap requirements leave nothing eligible and
// only range edges can mark.
TEST_P(MarkingOraclePropertyTest, NoRectangleCrosses) {
  const int seed = std::get<1>(GetParam());
  const testing::WorldConfig config = TinyWorld(std::get<0>(GetParam()), seed);
  const Query query = testing::MakeWorldQuery(config);
  const GridPartition grid = Grid3x3();
  Rng rng(config.seed);
  std::vector<std::vector<Rect>> data(3);
  for (auto& relation : data) {
    for (int i = 0; i < 8; ++i) {
      const Rect cell = grid.CellRect(
          static_cast<CellId>(rng.UniformInt(0, grid.num_cells() - 1)));
      const double l = rng.Uniform(1, 15);
      const double b = rng.Uniform(1, 15);
      relation.push_back(Rect::FromXYLB(
          rng.Uniform(cell.min_x() + 0.5, cell.max_x() - 0.5 - l),
          rng.Uniform(cell.min_y() + 0.5 + b, cell.max_y() - 0.5), l, b));
    }
  }
  const int marked = ExpectMatchesReference(query, grid, data, seed);
  if (config.mix == testing::PredicateMix::kOverlapOnly) {
    EXPECT_EQ(marked, 0) << "seed " << seed;
  }
}

class MarkingOracleShapeTest
    : public ::testing::TestWithParam<
          std::tuple<testing::QueryShape, int, int>> {};
// Params: (query shape, predicate mix index, seed).

// The 4-relation chain has binding plans three deep and subsets whose
// induced graph is disconnected; the triangle has a cycle, so a binding
// checks a second induced condition besides the one it probes through.
TEST_P(MarkingOracleShapeTest, MatchesLiteralConditions) {
  const int seed = std::get<2>(GetParam());
  testing::WorldConfig config = TinyWorld(std::get<1>(GetParam()), seed);
  config.shape = std::get<0>(GetParam());
  const Query query = testing::MakeWorldQuery(config);
  ExpectMatchesReference(query, Grid3x3(),
                         testing::MakeWorldData(config, query.num_relations()),
                         seed);
}

std::string ShapeWorldName(
    const ::testing::TestParamInfo<MarkingOracleShapeTest::ParamType>& info) {
  const char* const mixes[] = {"overlap", "range", "hybrid"};
  const auto& [shape, mix, seed] = info.param;
  return std::string(shape == testing::QueryShape::kChain4 ? "chain4_"
                                                           : "cycle3_") +
         mixes[mix] + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MarkingOracleShapeTest,
    ::testing::Combine(::testing::Values(testing::QueryShape::kChain4,
                                         testing::QueryShape::kCycle3),
                       ::testing::Range(0, 3), ::testing::Range(0, 6)),
    ShapeWorldName);

class MarkingOracleTwoDistanceTest : public ::testing::TestWithParam<int> {};
// Param: seed.

// R1 Ra(4) R2 ∧ R2 Ra(12) R3 ∧ R3 Ov R4: R2's requirement is d = 4 in
// {R2} and {R2, R3} but d = 12 in {R1, R2}, and R3 needs to cross in
// some subsets and not in others, so one relation gets several distinct
// eligibility keys.
TEST_P(MarkingOracleTwoDistanceTest, MatchesLiteralConditions) {
  const int seed = GetParam();
  QueryBuilder builder;
  for (const char* name : {"R1", "R2", "R3", "R4"}) builder.AddRelation(name);
  builder.AddCondition(0, 1, Predicate::Range(4));
  builder.AddCondition(1, 2, Predicate::Range(12));
  builder.AddCondition(2, 3, Predicate::Overlap());
  const Query query = builder.Build().value();
  testing::WorldConfig config = TinyWorld(0, seed);
  config.max_rects_per_relation = 6;
  ExpectMatchesReference(query, Grid3x3(),
                         testing::MakeWorldData(config, query.num_relations()),
                         seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarkingOracleTwoDistanceTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mwsj
