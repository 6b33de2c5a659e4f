// Differential harness for the streaming re-clusterer (DESIGN.md §9):
// after every ingested batch, the incremental epoch must be BIT-IDENTICAL
// to RunRpDbscan from scratch on the accumulated points with the same
// options — per-point labels (which are cluster ids, so identity covers
// cluster numbering too), cluster/noise counts, and the published
// snapshot's meta. Randomized over dims 2-5, both Phase II query engines,
// skewed cluster sizes, and minPts-boundary duplicate data; re-seed via
// RPDBSCAN_TEST_SEED.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rp_dbscan.h"
#include "io/dataset.h"
#include "stream/incremental.h"
#include "util/random.h"
#include "test_seed.h"

namespace rpdbscan {
namespace {

Dataset Prefix(const Dataset& all, size_t n) {
  Dataset out(all.dim());
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) out.Append(all.point(i));
  return out;
}

Dataset Slice(const Dataset& all, size_t begin, size_t count) {
  Dataset out(all.dim());
  out.Reserve(count);
  for (size_t i = 0; i < count; ++i) out.Append(all.point(begin + i));
  return out;
}

/// Skewed synthetic stream: three Gaussian clusters holding ~60/25/15% of
/// the clustered mass plus uniform background noise, in any dimension.
/// The skew matters: the dominant cluster keeps growing every batch while
/// the small ones only occasionally gain points, so the dirty set hits
/// both hot and cold regions of the grid.
Dataset SkewedData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dim);
  data.Reserve(n);
  std::vector<std::vector<float>> centers(3, std::vector<float>(dim));
  for (auto& c : centers) {
    for (size_t d = 0; d < dim; ++d) {
      c[d] = static_cast<float>(rng.UniformDouble(0.0, 40.0));
    }
  }
  std::vector<float> p(dim);
  for (size_t i = 0; i < n; ++i) {
    const double pick = rng.UniformDouble();
    if (pick < 0.85) {
      const size_t c = pick < 0.51 ? 0 : (pick < 0.72 ? 1 : 2);
      for (size_t d = 0; d < dim; ++d) {
        p[d] = static_cast<float>(rng.Normal(centers[c][d], 0.9));
      }
    } else {
      for (size_t d = 0; d < dim; ++d) {
        p[d] = static_cast<float>(rng.UniformDouble(-5.0, 45.0));
      }
    }
    data.Append(p.data());
  }
  return data;
}

/// Replays `all` as a seed prefix plus randomly-sized batches, publishing
/// an epoch after every batch and asserting bit-identity against a
/// from-scratch run on the accumulated prefix.
void DifferentialReplay(const Dataset& all, const RpDbscanOptions& options,
                        size_t seed_points, uint64_t batch_seed) {
  auto clusterer_or = StreamClusterer::Create(Prefix(all, seed_points),
                                              options);
  ASSERT_TRUE(clusterer_or.ok()) << clusterer_or.status();
  StreamClusterer clusterer = std::move(*clusterer_or);

  Rng batch_rng(batch_seed);
  const size_t n = all.size();
  size_t pos = seed_points;
  size_t epoch = 0;
  while (true) {
    SCOPED_TRACE("epoch " + std::to_string(epoch) + " at " +
                 std::to_string(pos) + "/" + std::to_string(n) + " points");
    auto epoch_or = clusterer.PublishEpoch();
    ASSERT_TRUE(epoch_or.ok()) << epoch_or.status();

    auto scratch_or = RunRpDbscan(Prefix(all, pos), options);
    ASSERT_TRUE(scratch_or.ok()) << scratch_or.status();
    ASSERT_EQ(epoch_or->labels, scratch_or->labels);
    EXPECT_EQ(epoch_or->stats.sequence, epoch);
    EXPECT_EQ(epoch_or->stats.total_points, pos);
    EXPECT_EQ(epoch_or->snapshot.meta().num_points, pos);
    EXPECT_TRUE(epoch_or->snapshot.has_epoch());
    EXPECT_EQ(epoch_or->snapshot.epoch().sequence, epoch);

    if (pos >= n) break;
    const size_t span = std::max<size_t>(1, (n - seed_points) / 4);
    size_t take = 1 + static_cast<size_t>(batch_rng.Uniform(span));
    take = std::min(take, n - pos);
    ASSERT_TRUE(clusterer.Ingest(Slice(all, pos, take)).ok());
    pos += take;
    ++epoch;
  }
}

RpDbscanOptions StreamOptions(double eps, size_t min_pts, bool stencil,
                              uint64_t seed) {
  RpDbscanOptions o;
  o.eps = eps;
  o.min_pts = min_pts;
  o.rho = 0.03;
  o.num_threads = 2;
  o.num_partitions = 8;
  o.stencil_queries = stencil;  // false = per-sub-dictionary tree descent
  o.seed = seed;
  o.audit_level = AuditLevel::kCheap;  // audit the stream stages too
  return o;
}

class StreamDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(StreamDifferentialTest, MatchesScratchRunAcrossSeeds) {
  const size_t dim = std::get<0>(GetParam());
  const bool stencil = std::get<1>(GetParam());
  const uint64_t base = TestSeed(0xA11CE + dim * 101 + (stencil ? 7 : 0));
  for (uint64_t s = 0; s < 3; ++s) {
    const uint64_t seed = base + s;
    SCOPED_TRACE(SeedNote(seed));
    SCOPED_TRACE("dim=" + std::to_string(dim) +
                 (stencil ? " stencil" : " tree-queries"));
    const size_t n = 360 + dim * 60;
    const Dataset all = SkewedData(n, dim, seed);
    // Higher dimensions spread the Gaussians out; grow eps so some cores
    // still form (the differential claim itself holds for any eps).
    const double eps = 1.4 + 0.45 * static_cast<double>(dim);
    DifferentialReplay(all, StreamOptions(eps, 8, stencil, seed), n / 2,
                       seed ^ 0x5eedbeefULL);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsByEngine, StreamDifferentialTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{3}, size_t{4},
                                         size_t{5}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Stencil" : "Tree");
    });

/// minPts-boundary stream: duplicate "sites" emitted round-robin so that
/// contiguous batches split a site's copies across epochs — cells cross
/// the exact min_pts density threshold mid-stream, the hardest edge for
/// an incremental core recompute to get wrong.
TEST(StreamIncrementalTest, MinPtsBoundaryDifferential) {
  const uint64_t seed = TestSeed(0xB0DA);
  SCOPED_TRACE(SeedNote(seed));
  const size_t min_pts = 4;
  for (const bool stencil : {true, false}) {
    SCOPED_TRACE(stencil ? "stencil" : "tree-queries");
    Rng rng(seed);
    const size_t num_sites = 120;
    std::vector<std::pair<float, float>> sites(num_sites);
    std::vector<size_t> copies(num_sites);
    size_t max_copies = 0;
    for (size_t i = 0; i < num_sites; ++i) {
      sites[i] = {static_cast<float>(rng.UniformDouble(0.0, 50.0)),
                  static_cast<float>(rng.UniformDouble(0.0, 50.0))};
      // min_pts - 1, exactly min_pts, or min_pts + 1 copies per site.
      copies[i] = min_pts - 1 + static_cast<size_t>(rng.Uniform(3));
      max_copies = std::max(max_copies, copies[i]);
    }
    Dataset all(2);
    for (size_t rep = 0; rep < max_copies; ++rep) {
      for (size_t i = 0; i < num_sites; ++i) {
        if (rep < copies[i]) {
          const float p[2] = {sites[i].first, sites[i].second};
          all.Append(p);
        }
      }
    }
    DifferentialReplay(all, StreamOptions(0.5, min_pts, stencil, seed),
                       all.size() / 3, seed + 1);
  }
}

/// Empty and single-point batches between epochs must be no-ops and
/// one-cell deltas respectively — and stay differential-exact.
TEST(StreamIncrementalTest, TinyAndEmptyBatches) {
  const uint64_t seed = TestSeed(0xE4411);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset all = SkewedData(240, 3, seed);
  const RpDbscanOptions o = StreamOptions(2.5, 6, true, seed);
  auto clusterer_or = StreamClusterer::Create(Prefix(all, 200), o);
  ASSERT_TRUE(clusterer_or.ok()) << clusterer_or.status();
  StreamClusterer clusterer = std::move(*clusterer_or);
  size_t pos = 200;
  {
    // Epoch 0 drains the seed's touched set (every cell).
    auto epoch_or = clusterer.PublishEpoch();
    ASSERT_TRUE(epoch_or.ok()) << epoch_or.status();
    EXPECT_EQ(epoch_or->stats.touched_cells, epoch_or->stats.total_cells);
  }
  for (size_t step = 0; step < 8; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Alternate: empty batch, then a 5-point batch.
    const size_t take = (step % 2 == 0) ? 0 : std::min<size_t>(
                                                  5, all.size() - pos);
    ASSERT_TRUE(clusterer.Ingest(Slice(all, pos, take)).ok());
    pos += take;
    auto epoch_or = clusterer.PublishEpoch();
    ASSERT_TRUE(epoch_or.ok()) << epoch_or.status();
    if (take == 0) EXPECT_EQ(epoch_or->stats.touched_cells, 0u);
    auto scratch_or = RunRpDbscan(Prefix(all, pos), o);
    ASSERT_TRUE(scratch_or.ok()) << scratch_or.status();
    ASSERT_EQ(epoch_or->labels, scratch_or->labels);
  }
}

/// Options an epoch cannot reproduce are refused at Create instead of
/// being silently dropped: a decoupled query radius and a sampled core
/// set would each give labels that differ from RunRpDbscan with the same
/// options. Options that only change how Phase I executes are accepted.
TEST(StreamIncrementalTest, CreateRejectsOptionsAnEpochCannotReproduce) {
  const Dataset seed_batch = SkewedData(200, 2, 5);
  RpDbscanOptions decoupled = StreamOptions(2.0, 6, true, 5);
  decoupled.query_eps = 3.0;
  auto a = StreamClusterer::Create(seed_batch, decoupled);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument) << a.status();
  EXPECT_NE(a.status().message().find("query_eps"), std::string::npos);

  RpDbscanOptions sampled = StreamOptions(2.0, 6, true, 5);
  sampled.sampled_core_fraction = 0.5;
  auto b = StreamClusterer::Create(seed_batch, sampled);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument) << b.status();
  EXPECT_NE(b.status().message().find("sampled_core_fraction"),
            std::string::npos);

  RpDbscanOptions sharded = StreamOptions(2.0, 6, true, 5);
  sharded.shard_workers = 4;
  EXPECT_TRUE(StreamClusterer::Create(seed_batch, sharded).ok());
}

}  // namespace
}  // namespace rpdbscan
