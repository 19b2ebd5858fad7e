// Micro-benchmarks for the grid substrate: the transform operations of §4
// run once per rectangle per job, so their throughput bounds the map
// phase. The *Threaded variants run one kernel on 1, 2 and 4 threads at
// once: every call also counts itself as executed work, and the reported
// CPU time per call should stay flat as threads are added — it grows when
// the threads' counting shares a cache line.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/dedup.h"
#include "grid/transform.h"

namespace mwsj {
namespace {

std::vector<Rect> MakeRects(int n, double space, double max_dim) {
  Rng rng(42);
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, max_dim);
    const double b = rng.Uniform(0, max_dim);
    rects.push_back(
        Rect::FromXYLB(rng.Uniform(0, space - l), rng.Uniform(b, space), l, b));
  }
  return rects;
}

void BM_CellOfPoint(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1024, 100'000, 100);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.CellOfPoint(rects[i & 1023].start_point()));
    ++i;
  }
}
BENCHMARK(BM_CellOfPoint);

void BM_SplitCells(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1024, 100'000, state.range(0));
  std::vector<CellId> cells;
  size_t i = 0;
  for (auto _ : state) {
    cells.clear();
    SplitCells(grid, rects[i & 1023], &cells);
    benchmark::DoNotOptimize(cells.data());
    ++i;
  }
}
BENCHMARK(BM_SplitCells)->Arg(100)->Arg(5000)->Arg(40000);

void BM_ReplicateF1(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1024, 100'000, 100);
  std::vector<CellId> cells;
  size_t i = 0;
  for (auto _ : state) {
    cells.clear();
    ReplicateF1Cells(grid, rects[i & 1023], &cells);
    benchmark::DoNotOptimize(cells.data());
    ++i;
  }
}
BENCHMARK(BM_ReplicateF1);

void BM_ReplicateF2(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1024, 100'000, 100);
  const double d = static_cast<double>(state.range(0));
  std::vector<CellId> cells;
  size_t i = 0;
  for (auto _ : state) {
    cells.clear();
    ReplicateF2Cells(grid, rects[i & 1023], d, DistanceMetric::kChebyshev,
                     &cells);
    benchmark::DoNotOptimize(cells.data());
    ++i;
  }
}
BENCHMARK(BM_ReplicateF2)->Arg(100)->Arg(20000);

void BM_EnlargedSplit(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1024, 100'000, 100);
  std::vector<CellId> cells;
  size_t i = 0;
  for (auto _ : state) {
    cells.clear();
    EnlargedSplitCells(grid, rects[i & 1023], 500.0, &cells);
    benchmark::DoNotOptimize(cells.data());
    ++i;
  }
}
BENCHMARK(BM_EnlargedSplit);

void BM_ProjectCellThreaded(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1024, 100'000, 100);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProjectCell(grid, rects[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_ProjectCellThreaded)->Threads(1)->Threads(2)->Threads(4);

void BM_SplitCellsThreaded(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1024, 100'000, 100);
  std::vector<CellId> cells;
  size_t i = 0;
  for (auto _ : state) {
    cells.clear();
    SplitCells(grid, rects[i & 1023], &cells);
    benchmark::DoNotOptimize(cells.data());
    ++i;
  }
}
BENCHMARK(BM_SplitCellsThreaded)->Threads(1)->Threads(2)->Threads(4);

// The §6.2 ownership check of a 3-way candidate tuple, asked of the
// tuple's start cell (so about half the checks also count an owned tuple).
void BM_OwnsTupleThreaded(benchmark::State& state) {
  const GridPartition grid =
      GridPartition::Create(Rect(0, 0, 100'000, 100'000), 8, 8).value();
  const auto rects = MakeRects(1026, 100'000, 5000);
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i & 1023;
    const Rect* members[] = {&rects[j], &rects[j + 1], &rects[j + 2]};
    benchmark::DoNotOptimize(
        OwnsTuple(grid, grid.CellOfRect(rects[j]), members));
    ++i;
  }
}
BENCHMARK(BM_OwnsTupleThreaded)->Threads(1)->Threads(2)->Threads(4);

}  // namespace
}  // namespace mwsj

BENCHMARK_MAIN();
