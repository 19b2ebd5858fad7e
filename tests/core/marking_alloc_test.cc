// Pins the allocation profile of C-Rep's round-1 marking: the oracle's
// allocations are per cell, per eligibility key and per binding plan, never
// per decided rectangle. A cell of non-crossing rectangles under an overlap
// chain is the common case (§7.8: about 1% of rectangles are marked) and
// must cost well under one heap block per rectangle decided. Counting via
// the shared counting allocator (testing/counting_new.h);
// gtest_discover_tests runs each TEST in its own process.
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/controlled_replicate.h"
#include "gtest/gtest.h"
#include "testing/counting_new.h"

namespace mwsj {
namespace {

TEST(MarkingAllocTest, NonCrossingCellAllocatesPerCellNotPerRectangle) {
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 8000, 8000), 8, 8).value();
  const CellId cell = grid.CellIdOf(3, 3);
  const Rect cell_rect = grid.CellRect(cell);

  constexpr int kPerRelation = 3000;
  Rng rng(17);
  std::vector<std::vector<LocalRect>> rects(3);
  for (auto& relation : rects) {
    relation.reserve(kPerRelation);
    for (int i = 0; i < kPerRelation; ++i) {
      const double l = rng.Uniform(1, 40);
      const double b = rng.Uniform(1, 40);
      const double x = rng.Uniform(cell_rect.min_x() + 1,
                                   cell_rect.max_x() - 1 - l);
      const double y = rng.Uniform(cell_rect.min_y() + 1 + b,
                                   cell_rect.max_y() - 1);
      relation.push_back(
          LocalRect{Rect::FromXYLB(x, y, l, b), static_cast<int64_t>(i)});
    }
  }

  const int64_t before = testing::HeapAllocs();
  const std::vector<std::vector<char>> marked =
      MarkRectanglesForCell(query, grid, cell, rects);
  const int64_t allocs = testing::HeapAllocs() - before;

  // Nothing crosses, so no overlap edge can leave a witness set.
  for (const auto& flags : marked) {
    for (const char flag : flags) EXPECT_EQ(flag, 0);
  }
  const int64_t decided = 3 * kPerRelation;
  EXPECT_LT(allocs * 10, decided)
      << allocs << " heap blocks for " << decided << " decided rectangles";
}

}  // namespace
}  // namespace mwsj
