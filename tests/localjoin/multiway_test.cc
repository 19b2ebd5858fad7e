// Multiway local join (the reducer-side kernel) vs. brute force.

#include <gtest/gtest.h>

#include <algorithm>

#include "localjoin/brute_force.h"
#include "localjoin/multiway.h"
#include "testing/world.h"

namespace mwsj {
namespace {

std::vector<IdTuple> RunLocalJoin(const Query& query,
                                  const std::vector<std::vector<Rect>>& data) {
  std::vector<std::vector<LocalRect>> local(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    for (size_t i = 0; i < data[r].size(); ++i) {
      local[r].push_back(LocalRect{data[r][i], static_cast<int64_t>(i)});
    }
  }
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  MultiwayLocalJoin join(query, std::move(spans));
  std::vector<IdTuple> out;
  join.Execute([&out](const std::vector<const LocalRect*>& members) {
    IdTuple ids;
    ids.reserve(members.size());
    for (const LocalRect* m : members) ids.push_back(m->id);
    out.push_back(std::move(ids));
  });
  SortTuples(&out);
  return out;
}

class MultiwayLocalJoinTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};
// Params: (shape index, seed).

TEST_P(MultiwayLocalJoinTest, MatchesBruteForce) {
  using testing::QueryShape;
  const QueryShape shapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                               QueryShape::kStar4, QueryShape::kCycle3};
  testing::WorldConfig config;
  config.shape = shapes[std::get<0>(GetParam())];
  config.mix = (std::get<1>(GetParam()) % 2 == 0)
                   ? testing::PredicateMix::kOverlapOnly
                   : testing::PredicateMix::kHybrid;
  config.seed = static_cast<uint64_t>(std::get<1>(GetParam())) * 31 + 5;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());

  EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MultiwayLocalJoinTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 6)));

TEST(MultiwayLocalJoinEdge, EmptyRelationShortCircuits) {
  testing::WorldConfig config;
  const Query query = testing::MakeWorldQuery(config);
  auto data = testing::MakeWorldData(config, query.num_relations());
  data[2].clear();
  EXPECT_TRUE(RunLocalJoin(query, data).empty());
}

TEST(MultiwayLocalJoinEdge, ChainBindsThroughSmallestRelationFirst) {
  // Functional check that planning from a tiny relation does not change
  // results: one relation has a single rectangle.
  testing::WorldConfig config;
  config.seed = 77;
  const Query query = testing::MakeWorldQuery(config);
  auto data = testing::MakeWorldData(config, query.num_relations());
  data[1].resize(std::min<size_t>(data[1].size(), 1));
  EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data));
}

TEST(MultiwayLocalJoinProperty, MatchesBruteForceOnRandomWorlds) {
  // ~100 seeded random (query, dataset) pairs across every shape and
  // predicate mix, with relation sizes straddling the linear-scan
  // threshold so both the R-tree and scan probe paths are exercised.
  using testing::PredicateMix;
  using testing::QueryShape;
  const QueryShape shapes[] = {QueryShape::kChain3, QueryShape::kChain4,
                               QueryShape::kStar4, QueryShape::kCycle3};
  const PredicateMix mixes[] = {PredicateMix::kOverlapOnly,
                                PredicateMix::kRangeOnly,
                                PredicateMix::kHybrid};
  for (int trial = 0; trial < 100; ++trial) {
    testing::WorldConfig config;
    config.shape = shapes[trial % 4];
    config.mix = mixes[trial % 3];
    config.seed = 5000 + static_cast<uint64_t>(trial) * 13;
    config.max_rects_per_relation = 2 + (trial * 7) % 40;
    config.integer_coords = (trial % 5 == 0);
    const Query query = testing::MakeWorldQuery(config);
    const auto data = testing::MakeWorldData(config, query.num_relations());
    EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data))
        << "trial " << trial;
  }
}

TEST(MultiwayLocalJoinPlan, EqualSizeCliqueOrderIsIndexTieBroken) {
  // On a 3-clique with equal-size relations every greedy step ties on
  // size; the plan must break ties by relation index so order_ is
  // platform-deterministic.
  QueryBuilder b;
  const int r1 = b.AddRelation("R1");
  const int r2 = b.AddRelation("R2");
  const int r3 = b.AddRelation("R3");
  b.AddOverlap(r1, r2).AddOverlap(r2, r3).AddOverlap(r3, r1);
  const Query query = b.Build().value();

  std::vector<std::vector<LocalRect>> local(3);
  for (size_t r = 0; r < 3; ++r) {
    for (int i = 0; i < 10; ++i) {
      local[r].push_back(LocalRect{
          Rect::FromXYLB(static_cast<double>(i), 1, 1, 1), i});
    }
  }
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& rel : local) spans.emplace_back(rel.data(), rel.size());
  const MultiwayLocalJoin join(query, std::move(spans));
  EXPECT_EQ(join.binding_order(), (std::vector<int>{0, 1, 2}));
}

TEST(MultiwayLocalJoinEdge, RelationsBelowScanThresholdMatchBruteForce) {
  // Every relation below kLinearScanThreshold: no R-tree is built and all
  // probes take the linear-scan path.
  testing::WorldConfig config;
  config.seed = 123;
  config.max_rects_per_relation =
      static_cast<int>(MultiwayLocalJoin::kLinearScanThreshold) - 1;
  const Query query = testing::MakeWorldQuery(config);
  const auto data = testing::MakeWorldData(config, query.num_relations());
  EXPECT_EQ(RunLocalJoin(query, data), BruteForceJoin(query, data));
}

// The prefix-filter contract of Execute(emit, keep).
class MultiwayPrefixFilterTest : public ::testing::Test {
 protected:
  static testing::WorldConfig Config() {
    testing::WorldConfig config;
    config.shape = testing::QueryShape::kChain4;
    config.mix = testing::PredicateMix::kHybrid;
    config.seed = 4242;
    config.max_rects_per_relation = 40;
    return config;
  }

  MultiwayPrefixFilterTest() : query_(testing::MakeWorldQuery(Config())) {
    const auto data =
        testing::MakeWorldData(Config(), query_.num_relations());
    local_.resize(data.size());
    for (size_t r = 0; r < data.size(); ++r) {
      for (size_t i = 0; i < data[r].size(); ++i) {
        local_[r].push_back(LocalRect{data[r][i], static_cast<int64_t>(i)});
      }
    }
  }

  MultiwayLocalJoin MakeJoin() const {
    std::vector<std::span<const LocalRect>> spans;
    for (const auto& rel : local_) spans.emplace_back(rel.data(), rel.size());
    return MultiwayLocalJoin(query_, std::move(spans));
  }

  // The emit stream in emit order (not sorted): each tuple as the
  // addresses of its members.
  template <typename... Keep>
  std::vector<std::vector<const LocalRect*>> Stream(
      const Keep&... keep) const {
    std::vector<std::vector<const LocalRect*>> out;
    MakeJoin().Execute(
        [&out](const std::vector<const LocalRect*>& members) {
          out.push_back(members);
        },
        keep...);
    return out;
  }

  Query query_;
  std::vector<std::vector<LocalRect>> local_;
};

TEST_F(MultiwayPrefixFilterTest, KeepAllFilterLeavesTheEmitStreamExact) {
  const auto plain = Stream();
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(Stream([](const std::vector<const LocalRect*>&) { return true; }),
            plain);
}

TEST_F(MultiwayPrefixFilterTest, RejectAllFilterEmitsNothing) {
  int64_t calls = 0;
  const auto out = Stream([&calls](const std::vector<const LocalRect*>&) {
    ++calls;
    return false;
  });
  EXPECT_TRUE(out.empty());
  // Only depth 0 binds before every prefix is rejected: one call per
  // rectangle of the first relation bound.
  const int first = MakeJoin().binding_order()[0];
  EXPECT_EQ(calls,
            static_cast<int64_t>(local_[static_cast<size_t>(first)].size()));
}

TEST_F(MultiwayPrefixFilterTest, FilterSeesOnlyProperPrefixes) {
  // Called at depths 0 .. m-2: every call has between 1 and m-1 bound
  // members, bound in binding order.
  const std::vector<int> order = MakeJoin().binding_order();
  const size_t m = order.size();
  std::vector<int64_t> calls_by_bound(m + 1, 0);
  Stream([&](const std::vector<const LocalRect*>& partial) {
    size_t bound = 0;
    while (bound < m && partial[static_cast<size_t>(order[bound])] != nullptr) {
      ++bound;
    }
    for (size_t k = bound; k < m; ++k) {
      EXPECT_EQ(partial[static_cast<size_t>(order[k])], nullptr);
    }
    ++calls_by_bound[bound];
    return true;
  });
  EXPECT_EQ(calls_by_bound[0], 0);
  EXPECT_EQ(calls_by_bound[m], 0);
  for (size_t k = 1; k < m; ++k) EXPECT_GT(calls_by_bound[k], 0) << k;
}

TEST_F(MultiwayPrefixFilterTest, RejectedPrefixesDropExactlyTheirSubtrees) {
  // Rejecting every prefix whose first-bound member has an even id keeps
  // the rest of the stream, in the same order.
  const int first = MakeJoin().binding_order()[0];
  const auto odd_first = [first](const std::vector<const LocalRect*>& t) {
    return t[static_cast<size_t>(first)]->id % 2 == 1;
  };
  std::vector<std::vector<const LocalRect*>> expected;
  for (const auto& tuple : Stream()) {
    if (odd_first(tuple)) expected.push_back(tuple);
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Stream(odd_first), expected);
}

TEST(BruteForceTest, TinyHandComputedCase) {
  const Query q = MakeChainQuery(3, Predicate::Overlap()).value();
  const std::vector<std::vector<Rect>> data = {
      {Rect::FromXYLB(0, 2, 2, 2)},                           // a0
      {Rect::FromXYLB(1, 2, 2, 2), Rect::FromXYLB(9, 2, 1, 1)},  // b0, b1
      {Rect::FromXYLB(2.5, 2, 2, 2)},                         // c0
  };
  // a0-b0 overlap; b0-c0 overlap; b1 matches nothing.
  EXPECT_EQ(BruteForceJoin(q, data), (std::vector<IdTuple>{{0, 0, 0}}));
}

TEST(SortTuplesTest, LexicographicOrder) {
  std::vector<IdTuple> tuples = {{2, 1}, {1, 5}, {1, 2}};
  SortTuples(&tuples);
  EXPECT_EQ(tuples, (std::vector<IdTuple>{{1, 2}, {1, 5}, {2, 1}}));
}

}  // namespace
}  // namespace mwsj
