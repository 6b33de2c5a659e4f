// Every point-binning entry point rejects coordinates the int32 cell
// lattice cannot represent — non-finite values and values binning beyond
// GridGeometry::kMaxCellIndex — with InvalidArgument, instead of casting
// them to int32 (undefined) and clustering whatever cells that produced.
// The serving batch entry points reject such queries the same way.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/cell_set.h"
#include "core/grid.h"
#include "core/rp_dbscan.h"
#include "hierarchy/eps_ladder.h"
#include "io/point_source.h"
#include "parallel/thread_pool.h"
#include "serve/label_server.h"
#include "serve/snapshot.h"
#include "stream/incremental.h"
#include "synth/generators.h"

namespace rpdbscan {
namespace {

Dataset Points2(const std::vector<std::pair<float, float>>& pts) {
  Dataset ds(2);
  for (const auto& [x, y] : pts) ds.Append({x, y});
  return ds;
}

// The repro: on the unchecked path, +-1e30 both cast to the same int32
// cell and the run "succeeded" with one cluster where exact DBSCAN finds
// two.
Dataset Repro() {
  return Points2({{1.0f, 2.0f},
                  {1e30f, 3.0f},
                  {-1e30f, 3.0f},
                  {1.1f, 2.1f},
                  {1e30f, 3.1f}});
}

std::vector<Dataset> BadInputs() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<Dataset> out;
  out.push_back(Repro());
  out.push_back(Points2({{1.0f, 2.0f}, {nan, 3.0f}, {1.1f, 2.1f}}));
  out.push_back(Points2({{1.0f, 2.0f}, {1.1f, inf}, {1.1f, 2.1f}}));
  out.push_back(Points2({{1.0f, 2.0f}, {-inf, 0.0f}, {1.1f, 2.1f}}));
  return out;
}

RpDbscanOptions Opts() {
  RpDbscanOptions o;
  o.eps = 1.0;
  o.min_pts = 2;
  o.num_threads = 2;
  return o;
}

TEST(InputValidationTest, CheckPointsBoundsTheLattice) {
  auto geom = GridGeometry::Create(2, 1.0, 0.1);
  ASSERT_TRUE(geom.ok());
  // cell_side = 1/sqrt(2): the largest accepted coordinate bins to index
  // kMaxCellIndex; a few cells further is rejected.
  const double side = geom->cell_side();
  const float ok_hi = static_cast<float>(
      static_cast<double>(GridGeometry::kMaxCellIndex) * side);
  const float ok_lo = -ok_hi;
  const float far = static_cast<float>(
      static_cast<double>(GridGeometry::kMaxCellIndex + 1000) * side);
  const float good[] = {ok_lo, ok_hi, 0.0f, -3.5f};
  EXPECT_TRUE(geom->CheckPoints(good, 2).ok());
  const float bad[] = {0.0f, 0.0f, 1.0f, far};
  const Status s = geom->CheckPoints(bad, 2, 10);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("point 11 dimension 1"), std::string::npos)
      << s.message();
  const float nan_row[] = {std::numeric_limits<float>::quiet_NaN(), 0.0f};
  const Status n = geom->CheckPoints(nan_row, 1);
  EXPECT_EQ(n.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(n.message().find("not finite"), std::string::npos);
}

TEST(InputValidationTest, CheckPointsReportsFirstOffenderAtAnyThreadCount) {
  // Offenders spread over several scan slices: every pool size names the
  // first one in input order.
  auto geom = GridGeometry::Create(2, 1.0, 0.1);
  ASSERT_TRUE(geom.ok());
  std::vector<float> pts(2 * 20000, 1.0f);
  pts[2 * 19000 + 0] = std::numeric_limits<float>::quiet_NaN();
  pts[2 * 9000 + 1] = 1e30f;
  pts[2 * 9001 + 0] = -std::numeric_limits<float>::infinity();
  const std::string expected = geom->CheckPoints(pts.data(), 20000).ToString();
  EXPECT_NE(expected.find("point 9000 dimension 1"), std::string::npos)
      << expected;
  for (const size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(geom->CheckPoints(pts.data(), 20000, 0, &pool).ToString(),
              expected)
        << "threads " << threads;
  }
  pts[2 * 9000 + 1] = 1.0f;
  pts[2 * 9001 + 0] = 1.0f;
  pts[2 * 19000 + 0] = 1.0f;
  ThreadPool pool(4);
  EXPECT_TRUE(geom->CheckPoints(pts.data(), 20000, 0, &pool).ok());
}

TEST(InputValidationTest, CellSetBuildRejectsOnBothEngines) {
  auto geom = GridGeometry::Create(2, 1.0, 0.1);
  ASSERT_TRUE(geom.ok());
  for (const Dataset& ds : BadInputs()) {
    for (const bool sorted : {true, false}) {
      auto cells = CellSet::Build(ds, *geom, 2, 1, nullptr, sorted);
      EXPECT_EQ(cells.status().code(), StatusCode::kInvalidArgument)
          << "sorted=" << sorted;
    }
    DatasetSource source(ds);
    auto ext = CellSet::BuildExternal(source, *geom, 2, 1,
                                      ExternalBuildOptions());
    EXPECT_EQ(ext.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(InputValidationTest, RunRpDbscanRejects) {
  for (const Dataset& ds : BadInputs()) {
    auto r = RunRpDbscan(ds, Opts());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status();
    RpDbscanOptions hashed = Opts();
    hashed.sorted_phase1 = false;
    EXPECT_EQ(RunRpDbscan(ds, hashed).status().code(),
              StatusCode::kInvalidArgument);
    DatasetSource source(ds);
    RpDbscanOptions external = Opts();
    external.point_source = &source;
    EXPECT_EQ(RunRpDbscan(ds, external).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(InputValidationTest, BuildClusterHierarchyRejects) {
  for (const Dataset& ds : BadInputs()) {
    HierarchyOptions h;
    h.eps_levels = {1.0, 2.0};
    h.min_pts_levels = {2};
    h.num_threads = 2;
    EXPECT_EQ(BuildClusterHierarchy(ds, h).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(InputValidationTest, StreamCreateAndIngestReject) {
  for (const Dataset& ds : BadInputs()) {
    EXPECT_EQ(StreamClusterer::Create(ds, Opts()).status().code(),
              StatusCode::kInvalidArgument);
  }
  const Dataset seed = Points2({{1.0f, 2.0f}, {1.1f, 2.1f}, {5.0f, 5.0f}});
  auto stream = StreamClusterer::Create(seed, Opts());
  ASSERT_TRUE(stream.ok()) << stream.status();
  for (const Dataset& ds : BadInputs()) {
    EXPECT_EQ(stream->Ingest(ds).code(), StatusCode::kInvalidArgument);
  }
  // A rejected batch leaves the stream intact: a good batch still
  // ingests and publishes.
  ASSERT_TRUE(stream->Ingest(Points2({{5.1f, 5.1f}})).ok());
  auto epoch = stream->PublishEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status();
}

// A frozen model over `dim`-d blobs: d <= 5 serves through the stencil
// (grouped batches), d = 6 through the tree fallback.
std::shared_ptr<const ClusterModelSnapshot> Frozen(size_t dim) {
  RpDbscanOptions o;
  o.eps = dim <= 5 ? 2.0 : 4.0;
  o.min_pts = 10;
  o.num_threads = 2;
  o.capture_model = true;
  auto run = RunRpDbscan(synth::Blobs(1500, 4, 1.5, 3, dim), o);
  EXPECT_TRUE(run.ok()) << run.status();
  auto snap = ClusterModelSnapshot::FromModel(std::move(*run->model));
  EXPECT_TRUE(snap.ok()) << snap.status();
  return std::make_shared<const ClusterModelSnapshot>(std::move(*snap));
}

TEST(InputValidationTest, ServeBatchesRejectNonFiniteQueries) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const size_t dim : {size_t{3}, size_t{6}}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const auto snapshot = Frozen(dim);
    ASSERT_EQ(snapshot->dictionary().has_stencil(), dim <= 5);
    const LabelServer server(snapshot);
    ThreadPool pool(2);
    for (const float bad : {nan, inf, -inf}) {
      // Queries 0..4 finite; query 5 carries the bad value in its last
      // dimension and query 7 in its first: only query 5 is named.
      Dataset queries(dim);
      std::vector<float> q(dim, 50.0f);
      for (size_t i = 0; i < 10; ++i) {
        std::vector<float> row = q;
        if (i == 5) row[dim - 1] = bad;
        if (i == 7) row[0] = bad;
        queries.Append(row.data());
      }
      const std::string want =
          "query 5 dimension " + std::to_string(dim - 1) + ": coordinate is "
          "not finite";
      // Rejected before any work: the output keeps what it held.
      std::vector<ServeResult> out(1);
      out[0].cluster = 42;
      const Status batch = server.ClassifyBatch(queries, pool, &out);
      EXPECT_EQ(batch.code(), StatusCode::kInvalidArgument) << batch;
      EXPECT_NE(batch.message().find(want), std::string::npos) << batch;
      const Status each = server.ClassifyEach(queries, pool, &out);
      EXPECT_EQ(each.code(), StatusCode::kInvalidArgument) << each;
      EXPECT_NE(each.message().find(want), std::string::npos) << each;
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].cluster, 42);
    }
    // The same batch with finite values classifies.
    Dataset good(dim);
    std::vector<float> q(dim, 50.0f);
    for (size_t i = 0; i < 10; ++i) good.Append(q.data());
    std::vector<ServeResult> out;
    EXPECT_TRUE(server.ClassifyBatch(good, pool, &out).ok());
    EXPECT_EQ(out.size(), 10u);
  }
}

// A finite query far beyond the lattice (|index| > 2^30) is rejected and
// named, instead of overflowing the int32 home-cell binning.
TEST(InputValidationTest, ServeBatchesRejectQueriesOffTheLattice) {
  const auto snapshot = Frozen(2);
  const LabelServer server(snapshot);
  ThreadPool pool(2);
  Dataset queries(2);
  const float ok[2] = {50.0f, 50.0f};
  const float far[2] = {1e30f, 3.0f};
  queries.Append(ok);
  queries.Append(far);
  std::vector<ServeResult> out;
  for (const Status& s : {server.ClassifyBatch(queries, pool, &out),
                          server.ClassifyEach(queries, pool, &out)}) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
    EXPECT_NE(s.message().find("query 1 dimension 0"), std::string::npos)
        << s;
    EXPECT_NE(s.message().find("beyond the cell lattice"), std::string::npos)
        << s;
  }
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace rpdbscan
