// Process-wide work tallies (common/work_counters.h): kernel calls from
// many threads — some of which exit before the snapshot — add up exactly,
// and WorkCountersScope nests, restores the previous block and folds its
// block into the thread's shard. The concurrent-job and fault-injection
// attribution of JobStats::work is pinned in
// tests/testing/work_counters_chaos_test.cc.

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "common/work_counters.h"
#include "core/dedup.h"
#include "grid/grid_partition.h"
#include "grid/transform.h"

namespace mwsj {
namespace {

class WorkCountersTest : public ::testing::Test {
 protected:
  WorkCountersTest()
      : grid_(GridPartition::Create(Rect(0, 0, 8, 8), 4, 4).value()),
        a_(Rect::FromXYLB(1.0, 3.0, 3.0, 1.5)),
        b_(Rect::FromXYLB(2.5, 2.5, 1.0, 2.0)) {}

  // One ProjectCell, one SplitCells and one OwnsTuple (owned by exactly
  // one cell of the grid, so `owned` advances only for the owner).
  void CallKernels(CellId cell, std::vector<CellId>* scratch) const {
    (void)ProjectCell(grid_, a_);
    scratch->clear();
    SplitCells(grid_, a_, scratch);
    const Rect* members[] = {&a_, &b_};
    (void)OwnsTuple(grid_, cell, members);
  }

  CellId Owner() const {
    const Rect* members[] = {&a_, &b_};
    return grid_.CellOfPoint(MultiwayReferencePoint(members));
  }

  GridPartition grid_;
  Rect a_, b_;
};

TEST_F(WorkCountersTest, ThreadsExitingBeforeTheSnapshotStillCount) {
  constexpr int kThreads = 6;
  constexpr int kCalls = 5000;
  const WorkCounters before = SnapshotWorkCounters();

  // Even-numbered threads exit before the snapshot; odd-numbered ones stay
  // alive (parked on `snapshot_taken`) until after it, so the snapshot
  // reads both retired and live shards.
  std::latch counted(kThreads);
  std::latch snapshot_taken(1);
  std::vector<std::thread> exiting, parked;
  for (int t = 0; t < kThreads; ++t) {
    auto body = [&, t] {
      std::vector<CellId> scratch;
      for (int i = 0; i < kCalls; ++i) CallKernels(Owner(), &scratch);
      counted.count_down();
      if (t % 2 == 1) snapshot_taken.wait();
    };
    (t % 2 == 0 ? exiting : parked).emplace_back(body);
  }
  for (std::thread& th : exiting) th.join();
  counted.wait();
  const WorkCounters delta =
      WorkCountersDelta(before, SnapshotWorkCounters());
  snapshot_taken.count_down();
  for (std::thread& th : parked) th.join();

  const int64_t expected = int64_t{kThreads} * kCalls;
  EXPECT_EQ(delta.project_calls, expected);
  EXPECT_EQ(delta.split_calls, expected);
  EXPECT_EQ(delta.tuple_checks, expected);
  EXPECT_EQ(delta.owned, expected);
  EXPECT_EQ(delta.replicate_f1_calls, 0);
  EXPECT_EQ(delta.pair_checks, 0);
  // The legacy per-module snapshots read the same totals.
  EXPECT_EQ(TransformCountersDelta(before, SnapshotTransformCounters())
                .split_calls,
            expected);
  EXPECT_EQ(DedupCountersDelta(before, SnapshotDedupCounters()).tuple_checks,
            expected);
}

TEST_F(WorkCountersTest, ScopesNestAndFoldOnExit) {
  std::vector<CellId> scratch;
  const CellId not_owner = Owner() == 0 ? 1 : 0;
  const WorkCounters start = SnapshotWorkCounters();
  WorkCounters outer, inner;
  {
    WorkCountersScope outer_scope(&outer);
    CallKernels(Owner(), &scratch);
    {
      WorkCountersScope inner_scope(&inner);
      CallKernels(not_owner, &scratch);
      CallKernels(not_owner, &scratch);
      EXPECT_EQ(&CurrentWorkCounters(), &inner);
    }
    // The inner block reached the process totals when its scope closed;
    // the outer block's work is still pending.
    const WorkCounters mid = WorkCountersDelta(start, SnapshotWorkCounters());
    EXPECT_EQ(mid.project_calls, 2);
    EXPECT_EQ(mid.owned, 0);
    EXPECT_EQ(&CurrentWorkCounters(), &outer);
    CallKernels(Owner(), &scratch);
  }
  EXPECT_EQ(outer.project_calls, 2);
  EXPECT_EQ(outer.owned, 2);
  EXPECT_EQ(inner.split_calls, 2);
  EXPECT_EQ(inner.tuple_checks, 2);
  EXPECT_EQ(inner.owned, 0);

  WorkCounters both = outer;
  both.Add(inner);
  EXPECT_EQ(WorkCountersDelta(start, SnapshotWorkCounters()), both);

  // Outside every scope, calls count straight into the thread's shard.
  CallKernels(Owner(), &scratch);
  const WorkCounters after = WorkCountersDelta(start, SnapshotWorkCounters());
  EXPECT_EQ(after.project_calls, both.project_calls + 1);
  EXPECT_EQ(after.owned, both.owned + 1);
}

}  // namespace
}  // namespace mwsj
