// STR R-tree: probe results must exactly match linear scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "localjoin/rtree.h"
#include "simd/simd.h"

namespace mwsj {
namespace {

std::vector<Rect> RandomRects(int n, uint64_t seed, double space = 100,
                              double max_dim = 10) {
  Rng rng(seed);
  std::vector<Rect> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double l = rng.Uniform(0, max_dim);
    const double b = rng.Uniform(0, max_dim);
    out.push_back(Rect::FromXYLB(rng.Uniform(0, space - l),
                                 rng.Uniform(b, space), l, b));
  }
  return out;
}

std::vector<int32_t> Sorted(std::vector<int32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(RTreeTest, EmptyTreeReturnsNothing) {
  const RTree tree(std::vector<Rect>{});
  std::vector<int32_t> out;
  tree.CollectOverlapping(Rect(0, 0, 100, 100), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(RTreeTest, SingleEntry) {
  const std::vector<Rect> rects = {Rect::FromXYLB(5, 10, 2, 2)};
  const RTree tree(rects);
  std::vector<int32_t> out;
  tree.CollectOverlapping(Rect::FromXYLB(6, 9, 2, 2), &out);
  EXPECT_EQ(out, (std::vector<int32_t>{0}));
  out.clear();
  tree.CollectOverlapping(Rect::FromXYLB(50, 50, 1, 1), &out);
  EXPECT_TRUE(out.empty());
}

class RTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeRandomTest, OverlapProbesMatchLinearScan) {
  const int seed = GetParam();
  const std::vector<Rect> rects =
      RandomRects(400, static_cast<uint64_t>(seed) + 1);
  const RTree tree(rects, /*leaf_capacity=*/8);
  Rng rng(static_cast<uint64_t>(seed) + 1000);
  for (int probe = 0; probe < 50; ++probe) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 90), rng.Uniform(10, 100),
                                  rng.Uniform(0, 20), rng.Uniform(0, 20));
    std::vector<int32_t> got;
    tree.CollectOverlapping(q, &got);
    std::vector<int32_t> want;
    for (size_t i = 0; i < rects.size(); ++i) {
      if (Overlaps(rects[i], q)) want.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(Sorted(got), want) << "probe " << probe;
  }
}

TEST_P(RTreeRandomTest, DistanceProbesMatchLinearScan) {
  const int seed = GetParam();
  const std::vector<Rect> rects =
      RandomRects(300, static_cast<uint64_t>(seed) + 7);
  const RTree tree(rects, /*leaf_capacity=*/4);
  Rng rng(static_cast<uint64_t>(seed) + 2000);
  for (int probe = 0; probe < 30; ++probe) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 95), rng.Uniform(5, 100),
                                  rng.Uniform(0, 5), rng.Uniform(0, 5));
    const double d = rng.Uniform(0, 15);
    std::vector<int32_t> got;
    tree.CollectWithinDistance(q, d, &got);
    std::vector<int32_t> want;
    for (size_t i = 0; i < rects.size(); ++i) {
      if (WithinDistance(rects[i], q, d)) want.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(Sorted(got), want) << "probe " << probe << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeRandomTest, ::testing::Range(0, 6));

TEST(RTreeScratchTest, EmptyTreeWithScratchReturnsNothing) {
  const RTree tree(std::vector<Rect>{});
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  tree.CollectOverlapping(Rect(0, 0, 100, 100), &scratch, &out);
  EXPECT_TRUE(out.empty());
  tree.CollectWithinDistance(Rect(0, 0, 100, 100), 5.0, &scratch, &out);
  EXPECT_TRUE(out.empty());
  // The empty early-out must not grow the scratch stack.
  EXPECT_TRUE(scratch.stack.empty());
}

TEST(RTreeScratchTest, SingleRectTree) {
  const std::vector<Rect> rects = {Rect::FromXYLB(5, 10, 2, 2)};
  const RTree tree(rects);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  tree.CollectOverlapping(Rect::FromXYLB(6, 9, 2, 2), &scratch, &out);
  EXPECT_EQ(out, (std::vector<int32_t>{0}));
  out.clear();
  tree.CollectOverlapping(Rect::FromXYLB(50, 50, 1, 1), &scratch, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  tree.CollectWithinDistance(Rect::FromXYLB(10, 9, 1, 1), 3.0, &scratch, &out);
  EXPECT_EQ(out, (std::vector<int32_t>{0}));
  out.clear();
  tree.CollectWithinDistance(Rect::FromXYLB(10, 9, 1, 1), 2.9, &scratch, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeScratchTest, ScratchReusableAcrossProbesAndTrees) {
  const std::vector<Rect> rects_a = RandomRects(200, 11);
  const std::vector<Rect> rects_b = RandomRects(150, 12);
  const RTree tree_a(rects_a, /*leaf_capacity=*/8);
  const RTree tree_b(rects_b, /*leaf_capacity=*/4);
  RTree::QueryScratch scratch;
  Rng rng(99);
  for (int probe = 0; probe < 40; ++probe) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 90), rng.Uniform(10, 100),
                                  rng.Uniform(0, 15), rng.Uniform(0, 15));
    const RTree& tree = (probe % 2 == 0) ? tree_a : tree_b;
    const std::vector<Rect>& rects = (probe % 2 == 0) ? rects_a : rects_b;
    std::vector<int32_t> got;
    tree.CollectOverlapping(q, &scratch, &got);
    std::vector<int32_t> want;
    for (size_t i = 0; i < rects.size(); ++i) {
      if (Overlaps(rects[i], q)) want.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(Sorted(got), want) << "probe " << probe;
  }
}

TEST(RTreeScratchTest, DistanceZeroMatchesTouchingRectangles) {
  // d = 0 range queries degenerate to "MinDistance == 0": overlapping or
  // exactly touching rectangles qualify, disjoint ones do not.
  const std::vector<Rect> rects = {
      Rect(0, 0, 2, 2),    // Overlaps the probe.
      Rect(3, 0, 5, 2),    // Touches the probe's right edge.
      Rect(3, 3, 5, 5),    // Touches the probe's corner.
      Rect(3.1, 0, 5, 2),  // Disjoint by 0.1.
  };
  const RTree tree(rects, /*leaf_capacity=*/2);
  const Rect probe(1, 0, 3, 3);
  RTree::QueryScratch scratch;
  std::vector<int32_t> out;
  tree.CollectWithinDistance(probe, 0.0, &scratch, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int32_t>{0, 1, 2}));
  // A random set, cross-checked against a linear scan at d = 0.
  const std::vector<Rect> random = RandomRects(300, 21);
  const RTree random_tree(random, /*leaf_capacity=*/8);
  Rng rng(22);
  for (int probe_i = 0; probe_i < 30; ++probe_i) {
    const Rect q = Rect::FromXYLB(rng.Uniform(0, 90), rng.Uniform(10, 100),
                                  rng.Uniform(0, 20), rng.Uniform(0, 20));
    std::vector<int32_t> got;
    random_tree.CollectWithinDistance(q, 0.0, &scratch, &got);
    std::vector<int32_t> want;
    for (size_t i = 0; i < random.size(); ++i) {
      if (WithinDistance(random[i], q, 0.0)) {
        want.push_back(static_cast<int32_t>(i));
      }
    }
    EXPECT_EQ(Sorted(got), want) << "probe " << probe_i;
  }
}

TEST(RTreeTest, HandlesManyIdenticalRectangles) {
  const std::vector<Rect> rects(100, Rect::FromXYLB(5, 5, 1, 1));
  const RTree tree(rects);
  std::vector<int32_t> out;
  tree.CollectOverlapping(Rect::FromXYLB(5.5, 5, 1, 1), &out);
  EXPECT_EQ(out.size(), 100u);
}

TEST(RTreeTest, DegeneratePointEntriesAreFound) {
  std::vector<Rect> rects;
  for (int i = 0; i < 20; ++i) {
    rects.push_back(Rect::FromPoint(Point{static_cast<double>(i), 1.0}));
  }
  const RTree tree(rects, 4);
  std::vector<int32_t> out;
  tree.CollectOverlapping(Rect(4.5, 0, 9.5, 2), &out);
  EXPECT_EQ(Sorted(out), (std::vector<int32_t>{5, 6, 7, 8, 9}));
}

// Inputs for the radix STR build, each stressing one property of the
// center keys: ties, degenerate extents, sign and magnitude, signed zero.
enum class Family {
  kUniform,
  kAllEqualCenters,
  kZeroArea,
  kNegativeAndHuge,
  kSignedZero,
};

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kAllEqualCenters: return "all-equal-centers";
    case Family::kZeroArea: return "zero-area";
    case Family::kNegativeAndHuge: return "negative-and-huge";
    case Family::kSignedZero: return "signed-zero";
  }
  return "?";
}

std::vector<Rect> FamilyRects(Family f, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    switch (f) {
      case Family::kUniform:
        out.push_back(Rect::FromXYLB(rng.Uniform(0, 90), rng.Uniform(10, 100),
                                     rng.Uniform(0, 10), rng.Uniform(0, 10)));
        break;
      case Family::kAllEqualCenters: {
        // Nested rectangles around one center: every key ties.
        const double hx = rng.Uniform(0, 20);
        const double hy = rng.Uniform(0, 20);
        out.push_back(Rect(3 - hx, -7 - hy, 3 + hx, -7 + hy));
        break;
      }
      case Family::kZeroArea: {
        // Points and axis-parallel segments on a coarse lattice.
        const double x = static_cast<double>(rng.UniformInt(0, 9));
        const double y = static_cast<double>(rng.UniformInt(0, 9));
        const double len = static_cast<double>(rng.UniformInt(0, 3));
        out.push_back(i % 2 == 0 ? Rect(x, y, x + len, y)
                                 : Rect(x, y, x, y + len));
        break;
      }
      case Family::kNegativeAndHuge: {
        // Magnitudes from 1e-3 to 1e307 on both sides of zero; some
        // centers overflow to +-inf, which the keys order like any value.
        const double scale = std::pow(10.0, rng.UniformInt(-3, 307));
        const double x = rng.Uniform(-1, 1) * scale;
        const double y = rng.Uniform(-1, 1) * scale;
        const double big = std::numeric_limits<double>::max();
        if (i % 97 == 0) {
          out.push_back(Rect(big / 2, -big, big, -big / 2));
        } else {
          out.push_back(Rect(x, y, x + scale * rng.Uniform(0, 0.5),
                             y + scale * rng.Uniform(0, 0.5)));
        }
        break;
      }
      case Family::kSignedZero: {
        // Coordinates from {-1, -0, +0, 1}: -0 and +0 centers must tie.
        const double v[] = {-1.0, -0.0, 0.0, 1.0};
        const double x0 = v[rng.UniformInt(0, 2)];
        const double y0 = v[rng.UniformInt(0, 2)];
        const double x1 = x0 == 0 ? v[rng.UniformInt(1, 3)] : 1.0;
        const double y1 = y0 == 0 ? v[rng.UniformInt(1, 3)] : 1.0;
        out.push_back(Rect(x0, y0, std::max(x0, x1), std::max(y0, y1)));
        break;
      }
    }
  }
  return out;
}

// STR tile order by std::stable_sort on centers: the order the tree's leaf
// level must reproduce, ties keeping input order.
std::vector<int32_t> StableStrOrder(const std::vector<Rect>& rects,
                                    int leaf_capacity) {
  const size_t n = rects.size();
  std::vector<int32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int32_t>(i);
  if (n == 0) return ids;
  const size_t group = static_cast<size_t>(std::max(2, leaf_capacity));
  std::stable_sort(ids.begin(), ids.end(), [&](int32_t a, int32_t b) {
    return rects[static_cast<size_t>(a)].center().x <
           rects[static_cast<size_t>(b)].center().x;
  });
  const size_t tiles = (n + group - 1) / group;
  const size_t slabs =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(tiles))));
  const size_t slab_size = ((tiles + slabs - 1) / slabs) * group;
  for (size_t lo = 0; lo < n; lo += slab_size) {
    const size_t hi = std::min(n, lo + slab_size);
    std::stable_sort(ids.begin() + static_cast<ptrdiff_t>(lo),
                     ids.begin() + static_cast<ptrdiff_t>(hi),
                     [&](int32_t a, int32_t b) {
                       return rects[static_cast<size_t>(a)].center().y <
                              rects[static_cast<size_t>(b)].center().y;
                     });
  }
  return ids;
}

constexpr Family kFamilies[] = {Family::kUniform, Family::kAllEqualCenters,
                                Family::kZeroArea, Family::kNegativeAndHuge,
                                Family::kSignedZero};
constexpr int kSizes[] = {0, 1, 15, 16, 17, 3000};

TEST(RTreeRadixBuildTest, ProbesMatchLinearScanOnKeyEdgeCases) {
  for (const Family family : kFamilies) {
    for (const int n : kSizes) {
      const std::vector<Rect> rects =
          FamilyRects(family, n, static_cast<uint64_t>(n) * 7 + 1);
      const RTree tree(rects);
      RTree::QueryScratch scratch;
      // Probe with members of the set itself (exact ties on every edge)
      // and with their enlargements.
      const size_t probes = std::min<size_t>(rects.size(), 25);
      for (size_t p = 0; p < probes; ++p) {
        const Rect& q = rects[(p * 7919) % rects.size()];
        std::vector<int32_t> got;
        tree.CollectOverlapping(q, &scratch, &got);
        std::vector<int32_t> want;
        for (size_t i = 0; i < rects.size(); ++i) {
          if (Overlaps(rects[i], q)) want.push_back(static_cast<int32_t>(i));
        }
        EXPECT_EQ(Sorted(got), want)
            << FamilyName(family) << " n=" << n << " probe " << p;
        const double d = 0.5 * (q.length() + q.breadth()) + 1;
        got.clear();
        tree.CollectWithinDistance(q, d, &scratch, &got);
        want.clear();
        for (size_t i = 0; i < rects.size(); ++i) {
          if (WithinDistance(rects[i], q, d)) {
            want.push_back(static_cast<int32_t>(i));
          }
        }
        EXPECT_EQ(Sorted(got), want) << FamilyName(family) << " n=" << n
                                     << " probe " << p << " d=" << d;
      }
    }
  }
}

TEST(RTreeRadixBuildTest, LeafOrderIsAStableCenterSortUnderEveryIsa) {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::IsaAvailable(simd::Isa::kSse)) isas.push_back(simd::Isa::kSse);
  if (simd::IsaAvailable(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  const simd::Isa original = simd::ActiveIsa();
  for (const Family family : kFamilies) {
    for (const int n : kSizes) {
      const std::vector<Rect> rects =
          FamilyRects(family, n, static_cast<uint64_t>(n) * 13 + 5);
      for (const int cap : {4, 16}) {
        const std::vector<int32_t> want = StableStrOrder(rects, cap);
        for (const simd::Isa isa : isas) {
          simd::SetIsaForTesting(isa);
          const RTree tree(rects, cap);
          EXPECT_EQ(tree.leaf_order(), want)
              << FamilyName(family) << " n=" << n << " cap=" << cap
              << " isa=" << simd::IsaName(isa);
        }
      }
    }
  }
  simd::SetIsaForTesting(original);
}

}  // namespace
}  // namespace mwsj
