// Micro-benchmarks for the reducer-side join kernels: STR R-tree build and
// probe, plane sweep, and the multiway backtracking join.
//
// This binary links the shared counting allocator (testing/counting_new.h)
// so probe benchmarks can assert the steady state performs zero heap
// allocations per query (reported as the `allocs_per_*` counters).

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "localjoin/multiway.h"
#include "localjoin/plane_sweep.h"
#include "localjoin/rtree.h"
#include "query/query.h"
#include "testing/counting_new.h"

namespace mwsj {
namespace {

std::vector<Rect> MakeRects(int n, uint64_t seed, double space = 10'000,
                            double max_dim = 60) {
  Rng rng(seed);
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

// Rectangles packed into a few tight clusters, like a road network's towns
// falling into one reducer cell: centers share exponent and leading
// mantissa bits, the case the radix STR sort skips digits on.
std::vector<Rect> MakeClusteredRects(int n, uint64_t seed) {
  Rng rng(seed);
  constexpr int kClusters = 8;
  std::vector<Point> centers;
  for (int c = 0; c < kClusters; ++c) {
    const double x = rng.Uniform(1'000, 2'000);
    centers.push_back(Point{x, rng.Uniform(1'000, 2'000)});
  }
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Point& c = centers[static_cast<size_t>(i % kClusters)];
    const double l = rng.Uniform(0, 2);
    const double b = rng.Uniform(0, 2);
    rects.push_back(Rect::FromXYLB(c.x + rng.Uniform(-20, 20),
                                   c.y + rng.Uniform(-20, 20), l, b));
  }
  return rects;
}

// Arg 0: rectangle count; arg 1: 0 uniform, 1 clustered. The 3k rows are
// one reducer's relation at benchmark scale.
void BM_RTreeBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto rects =
      state.range(1) == 0 ? MakeRects(n, 1) : MakeClusteredRects(n, 1);
  for (auto _ : state) {
    RTree tree(rects);
    benchmark::DoNotOptimize(&tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuild)
    ->Args({1000, 0})
    ->Args({3000, 0})
    ->Args({3000, 1})
    ->Args({10000, 0})
    ->Args({100000, 0});

void BM_RTreeOverlapProbe(benchmark::State& state) {
  const auto rects = MakeRects(static_cast<int>(state.range(0)), 2);
  const RTree tree(rects);
  const auto probes = MakeRects(512, 3);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    tree.CollectOverlapping(probes[i & 511], &scratch, &out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK(BM_RTreeOverlapProbe)->Arg(1000)->Arg(100000);

void BM_RTreeDistanceProbe(benchmark::State& state) {
  const auto rects = MakeRects(static_cast<int>(state.range(0)), 4);
  const RTree tree(rects);
  const auto probes = MakeRects(512, 5);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    tree.CollectWithinDistance(probes[i & 511], 100.0, &scratch, &out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
}
BENCHMARK(BM_RTreeDistanceProbe)->Arg(1000)->Arg(100000);

void BM_RTreeQuery(benchmark::State& state) {
  // Steady-state allocation check for the scratch probe API: after the
  // scratch and output buffers reach their high-water mark, a probe must
  // not touch the heap at all (allocs_per_probe == 0).
  const auto rects = MakeRects(static_cast<int>(state.range(0)), 8);
  const RTree tree(rects);
  const auto probes = MakeRects(512, 9);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  for (size_t i = 0; i < 512; ++i) {  // Warm buffers to high-water mark.
    out.clear();
    tree.CollectOverlapping(probes[i], &scratch, &out);
  }
  int64_t allocs = 0;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    const int64_t before = testing::HeapAllocs();
    tree.CollectOverlapping(probes[i & 511], &scratch, &out);
    allocs += testing::HeapAllocs() - before;
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.counters["allocs_per_probe"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RTreeQuery)->Arg(1000)->Arg(100000);

void BM_PlaneSweepOverlap(benchmark::State& state) {
  const auto a = MakeRects(static_cast<int>(state.range(0)), 6);
  const auto b = MakeRects(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    int64_t pairs = 0;
    PlaneSweepJoin(a, b, Predicate::Overlap(),
                   [&pairs](int32_t, int32_t) { ++pairs; });
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_PlaneSweepOverlap)->Arg(1000)->Arg(20000);

std::vector<std::vector<LocalRect>> MakeChainLocals(int n) {
  std::vector<std::vector<LocalRect>> locals;
  for (uint64_t r = 0; r < 3; ++r) {
    const auto rects = MakeRects(n, 10 + r);
    std::vector<LocalRect> local;
    local.reserve(rects.size());
    for (size_t i = 0; i < rects.size(); ++i) {
      local.push_back(LocalRect{rects[i], static_cast<int64_t>(i)});
    }
    locals.push_back(std::move(local));
  }
  return locals;
}

void BM_MultiwayLocalJoinChain3(benchmark::State& state) {
  // Build + execute per iteration: what one reducer does for one cell.
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  const int n = static_cast<int>(state.range(0));
  const auto locals = MakeChainLocals(n);
  for (auto _ : state) {
    std::vector<std::span<const LocalRect>> spans;
    for (const auto& l : locals) spans.emplace_back(l.data(), l.size());
    MultiwayLocalJoin join(query, std::move(spans));
    int64_t tuples = 0;
    join.Execute([&tuples](const std::vector<const LocalRect*>&) {
      ++tuples;
    });
    benchmark::DoNotOptimize(tuples);
  }
  state.SetItemsProcessed(state.iterations() * 3 * n);
}
BENCHMARK(BM_MultiwayLocalJoinChain3)->Arg(1000)->Arg(10000);

void BM_MultiwayLocalJoinExecute(benchmark::State& state) {
  // Probe-only: the trees are built once, the backtracking search runs per
  // iteration. Also reports steady-state heap allocations per Execute —
  // a small constant (the BindScratch vectors), independent of the number
  // of probes and emitted tuples.
  const Query query = MakeChainQuery(3, Predicate::Overlap()).value();
  const int n = static_cast<int>(state.range(0));
  const auto locals = MakeChainLocals(n);
  std::vector<std::span<const LocalRect>> spans;
  for (const auto& l : locals) spans.emplace_back(l.data(), l.size());
  const MultiwayLocalJoin join(query, std::move(spans));
  int64_t tuples = 0;
  join.Execute([&tuples](const std::vector<const LocalRect*>&) { ++tuples; });
  int64_t allocs = 0;
  for (auto _ : state) {
    int64_t count = 0;
    const int64_t before = testing::HeapAllocs();
    join.Execute([&count](const std::vector<const LocalRect*>&) { ++count; });
    allocs += testing::HeapAllocs() - before;
    benchmark::DoNotOptimize(count);
  }
  state.counters["allocs_per_exec"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["tuples"] =
      benchmark::Counter(static_cast<double>(tuples));
  state.SetItemsProcessed(state.iterations() * 3 * n);
}
BENCHMARK(BM_MultiwayLocalJoinExecute)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace mwsj

BENCHMARK_MAIN();
