#include "spatial/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "io/dataset.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

// Brute-force reference for radius queries.
std::vector<uint32_t> BruteRadius(const Dataset& ds, const float* q,
                                  double r) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (DistanceSquared(q, ds.point(i), ds.dim()) <= r * r) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

Dataset RandomDataset(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(dim);
  ds.Reserve(n);
  std::vector<float> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<float>(rng.UniformDouble(0, 100));
    ds.Append(p.data());
  }
  return ds;
}

TEST(KdTreeTest, EmptyTreeReturnsNothing) {
  KdTree tree;
  tree.Build(nullptr, 0, 2);
  const float q[2] = {0, 0};
  EXPECT_TRUE(tree.RadiusSearch(q, 10).empty());
}

TEST(KdTreeTest, SinglePoint) {
  Dataset ds(2);
  ds.Append({5, 5});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float near[2] = {5.5f, 5.0f};
  const float far[2] = {50, 50};
  EXPECT_EQ(tree.RadiusSearch(near, 1.0).size(), 1u);
  EXPECT_TRUE(tree.RadiusSearch(far, 1.0).empty());
}

TEST(KdTreeTest, RadiusIsClosedBall) {
  Dataset ds(1);
  ds.Append({0});
  ds.Append({1});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 1);
  const float q[1] = {0};
  EXPECT_EQ(tree.RadiusSearch(q, 1.0).size(), 2u);  // boundary included
}

TEST(KdTreeTest, DuplicatePointsAllFound) {
  Dataset ds(2);
  for (int i = 0; i < 20; ++i) ds.Append({1, 1});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2, /*leaf_size=*/4);
  const float q[2] = {1, 1};
  EXPECT_EQ(tree.RadiusSearch(q, 0.1).size(), 20u);
}

TEST(KdTreeTest, MatchesBruteForce2d) {
  const Dataset ds = RandomDataset(2000, 2, 42);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const float q[2] = {static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100))};
    const double r = rng.UniformDouble(0.5, 15.0);
    auto got = tree.RadiusSearch(q, r);
    auto want = BruteRadius(ds, q, r);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "trial " << trial << " r=" << r;
  }
}

TEST(KdTreeTest, MatchesBruteForceHighDim) {
  const Dataset ds = RandomDataset(500, 7, 43);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  Rng rng(8);
  std::vector<float> q(7);
  for (int trial = 0; trial < 20; ++trial) {
    for (auto& v : q) v = static_cast<float>(rng.UniformDouble(0, 100));
    const double r = rng.UniformDouble(10.0, 60.0);
    auto got = tree.RadiusSearch(q.data(), r);
    auto want = BruteRadius(ds, q.data(), r);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST(KdTreeTest, ForEachReportsCorrectDistances) {
  const Dataset ds = RandomDataset(300, 3, 44);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  const float q[3] = {50, 50, 50};
  tree.ForEachInRadius(q, 30.0, [&](uint32_t id, double d2) {
    EXPECT_NEAR(d2, DistanceSquared(q, ds.point(id), 3), 1e-9);
    EXPECT_LE(d2, 900.0 + 1e-9);
  });
}

TEST(KdTreeTest, CountInRadiusMatchesSearchSize) {
  const Dataset ds = RandomDataset(1000, 2, 45);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  const float q[2] = {50, 50};
  EXPECT_EQ(tree.CountInRadius(q, 20.0),
            tree.RadiusSearch(q, 20.0).size());
}

TEST(KdTreeTest, CountInRadiusHonorsCap) {
  Dataset ds(2);
  for (int i = 0; i < 100; ++i) ds.Append({0, 0});
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float q[2] = {0, 0};
  EXPECT_EQ(tree.CountInRadius(q, 1.0, /*cap=*/10), 10u);
}

TEST(KdTreeTest, KNearestMatchesBruteForce) {
  const Dataset ds = RandomDataset(1500, 3, 47);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), ds.dim());
  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const float q[3] = {static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100))};
    const size_t k = 1 + rng.Uniform(20);
    const auto got = tree.KNearest(q, k);
    // Brute-force reference.
    std::vector<std::pair<double, uint32_t>> want;
    for (size_t i = 0; i < ds.size(); ++i) {
      want.push_back({DistanceSquared(q, ds.point(i), 3),
                      static_cast<uint32_t>(i)});
    }
    std::sort(want.begin(), want.end());
    want.resize(k);
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(got[i].first, want[i].first, 1e-9) << "rank " << i;
    }
  }
}

TEST(KdTreeTest, KNearestSortedAscending) {
  const Dataset ds = RandomDataset(500, 2, 48);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float q[2] = {50, 50};
  const auto knn = tree.KNearest(q, 32);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_GE(knn[i].first, knn[i - 1].first);
  }
}

TEST(KdTreeTest, KNearestKLargerThanTree) {
  const Dataset ds = RandomDataset(10, 2, 49);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2);
  const float q[2] = {0, 0};
  EXPECT_EQ(tree.KNearest(q, 100).size(), 10u);
  EXPECT_TRUE(tree.KNearest(q, 0).empty());
}

TEST(KdTreeTest, LeafSizeOneStillCorrect) {
  const Dataset ds = RandomDataset(200, 2, 46);
  KdTree tree;
  tree.Build(ds.flat().data(), ds.size(), 2, /*leaf_size=*/1);
  const float q[2] = {50, 50};
  auto got = tree.RadiusSearch(q, 25.0);
  auto want = BruteRadius(ds, q, 25.0);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace rpdbscan
