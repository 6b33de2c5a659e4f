// Differential tests of the tree candidate engine: CellDictionary::QueryCell
// and Query walk a box tree over the cells' occupied-sub-cell MBRs and
// decide whole subtrees at once. Their output must equal a brute-force
// classification of every dictionary cell with the same arithmetic, on
// data with duplicate points, points on cell faces and pairs exactly eps
// apart, for d in {2, 6, 8, 13}. End to end, the tree engine's labels must
// equal the stencil engine's where both exist (d <= 5) and lie inside the
// Theorem 5.4 sandwich against exact DBSCAN at d = 6 and d = 13; and every
// per-cell neighbour list Phase II emits must be ascending and
// duplicate-free on every engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/exact_dbscan.h"
#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/phase2.h"
#include "core/rp_dbscan.h"
#include "parallel/thread_pool.h"
#include "spatial/box_tree.h"
#include "synth/generators.h"
#include "util/random.h"

#include "test_seed.h"

namespace rpdbscan {
namespace {

struct Shape {
  size_t dim;
  double eps;
};

// Blobs (TeraLike at d = 13, where eps 32 makes each component nearly a
// clique) plus the awkward cases: exact duplicates, points moved onto a
// cell face, and partners exactly eps away along one axis. eps is a power
// of two and the partners sit on integer coordinates, so p + eps is exact.
Dataset MakeData(const Shape& shape, uint64_t seed) {
  Dataset ds = shape.dim == 13 ? synth::TeraLike(900, seed)
                               : synth::Blobs(900, 5, 1.5, seed, shape.dim);
  const double side = shape.eps / std::sqrt(static_cast<double>(shape.dim));
  Rng rng(seed * 7 + 1);
  std::vector<float> p(shape.dim);
  const size_t base = ds.size();
  for (size_t k = 0; k < 60; ++k) {
    const float* src = ds.point(static_cast<size_t>(rng.Uniform(base)));
    p.assign(src, src + shape.dim);
    ds.Append(p.data());  // duplicate
    const size_t d = static_cast<size_t>(rng.Uniform(shape.dim));
    p[d] = static_cast<float>(std::floor(p[d] / side) * side);
    ds.Append(p.data());  // on a cell face
  }
  for (size_t k = 0; k < 30; ++k) {
    const float* src = ds.point(static_cast<size_t>(rng.Uniform(base)));
    for (size_t d = 0; d < shape.dim; ++d) p[d] = std::round(src[d]);
    ds.Append(p.data());
    p[0] += static_cast<float>(shape.eps);  // exactly eps apart
    ds.Append(p.data());
  }
  return ds;
}

struct Built {
  Dataset data{1};
  GridGeometry geom;
  StatusOr<CellSet> cells = Status::Internal("unset");
  StatusOr<CellDictionary> dict = Status::Internal("unset");
};

// Small fragments, so every dictionary has several sub-dictionaries and
// trees several levels deep.
void Build(const Shape& shape, uint64_t seed, bool stencil, bool skipping,
           Built* b) {
  b->data = MakeData(shape, seed);
  auto g = GridGeometry::Create(shape.dim, shape.eps, 0.01);
  ASSERT_TRUE(g.ok()) << g.status();
  b->geom = *g;
  b->cells = CellSet::Build(b->data, b->geom, 4, seed);
  ASSERT_TRUE(b->cells.ok()) << b->cells.status();
  CellDictionaryOptions opts;
  opts.max_cells_per_subdict = 64;
  opts.build_stencil = stencil;
  opts.enable_skipping = skipping;
  ThreadPool pool(2);
  b->dict = CellDictionary::Build(b->data, *b->cells, opts, &pool);
  ASSERT_TRUE(b->dict.ok()) << b->dict.status();
}

// The dictionary's Lemma 5.10 test against the source box, same
// arithmetic.
double SubdictMinDist2(const Mbr& mbr, const float* lo, const float* hi,
                       size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    double gap = 0.0;
    if (mbr.min(d) > hi[d]) {
      gap = mbr.min(d) - hi[d];
    } else if (lo[d] > mbr.max(d)) {
      gap = lo[d] - mbr.max(d);
    }
    acc += gap * gap;
  }
  return acc;
}

struct Expected {
  uint64_t always_count = 0;
  std::vector<uint32_t> always;  // sorted
  std::vector<uint32_t> maybe;   // in (min2, cell id) order
};

// Every cell of every non-skipped sub-dictionary, classified on its own.
Expected BruteQueryCell(const CellDictionary& dict, const CellCoord& src,
                        const float* lo, const float* hi, double qeps,
                        bool skipping) {
  const size_t dim = dict.geom().dim();
  const double eps2 = qeps * qeps;
  const double disjoint2 = eps2 * CellDictionary::kDisjointMargin;
  const double contained2 = eps2 * CellDictionary::kContainMargin;
  Expected e;
  std::vector<std::pair<double, uint32_t>> maybe;
  for (const SubDictionary& sd : dict.subdictionaries()) {
    if (skipping && SubdictMinDist2(sd.mbr(), lo, hi, dim) > disjoint2) {
      continue;
    }
    for (uint32_t i = 0; i < sd.num_cells(); ++i) {
      const DictCell& c = sd.cells()[i];
      const float* mbr = sd.cell_mbr(i);
      double min2 = 0.0;
      double max2 = 0.0;
      MbrPairDistBounds(lo, hi, mbr, mbr + dim, dim, &min2, &max2);
      if (min2 > disjoint2) continue;
      if (max2 <= contained2) {
        e.always_count += c.total_count;
        if (!(c.coord == src)) e.always.push_back(c.cell_id);
        continue;
      }
      maybe.emplace_back(min2, c.cell_id);
    }
  }
  std::sort(e.always.begin(), e.always.end());
  std::sort(maybe.begin(), maybe.end());
  for (const auto& m : maybe) e.maybe.push_back(m.second);
  return e;
}

// Def. 5.1 per cell, Query's per-cell arithmetic, every cell of every
// non-skipped sub-dictionary.
std::map<uint32_t, uint32_t> BruteQuery(const CellDictionary& dict,
                                        const float* p, double qeps,
                                        bool skipping) {
  const GridGeometry& geom = dict.geom();
  const size_t dim = geom.dim();
  const double eps2 = qeps * qeps;
  std::map<uint32_t, uint32_t> out;
  for (const SubDictionary& sd : dict.subdictionaries()) {
    if (skipping && sd.mbr().MinDist2(p) > eps2) continue;
    for (const DictCell& c : sd.cells()) {
      if (geom.CellMaxDist2(c.coord, p) <= eps2) {
        out[c.cell_id] = c.total_count;
        continue;
      }
      if (geom.CellMinDist2(c.coord, p) > eps2) continue;
      uint32_t matched = 0;
      for (uint32_t s = c.subcell_begin; s < c.subcell_end; ++s) {
        const float* center = sd.subcell_centers().data() + s * dim;
        if (DistanceSquared(p, center, dim) <= eps2) {
          matched += sd.subcells()[s].count;
        }
      }
      if (matched > 0) out[c.cell_id] = matched;
    }
  }
  return out;
}

class TreeEngineTest : public ::testing::TestWithParam<Shape> {};

TEST_P(TreeEngineTest, QueryCellMatchesBruteForce) {
  const Shape shape = GetParam();
  const uint64_t seed = TestSeed(8100 + shape.dim);
  SCOPED_TRACE(SeedNote(seed));
  for (const bool stencil : {false, true}) {
    for (const bool skipping : {true, false}) {
      SCOPED_TRACE(std::string("stencil ") + (stencil ? "on" : "off") +
                   ", skipping " + (skipping ? "on" : "off"));
      Built b;
      Build(shape, seed, stencil, skipping, &b);
      const CellDictionary& dict = *b.dict;
      ASSERT_GT(dict.num_subdictionaries(), 2u);
      const size_t dim = shape.dim;
      // Where each cell id lives, for the maybe-list payload checks.
      std::vector<std::pair<const SubDictionary*, uint32_t>> where(
          dict.num_cells());
      for (const SubDictionary& sd : dict.subdictionaries()) {
        for (uint32_t i = 0; i < sd.num_cells(); ++i) {
          where[sd.cells()[i].cell_id] = {&sd, i};
        }
      }
      CandidateCellList cand;
      for (const double scale : {1.0, 1.3}) {
        QueryEpsSpec spec;
        spec.query_eps = scale == 1.0 ? 0.0 : scale * shape.eps;
        const double qeps = scale * shape.eps;
        for (uint32_t cid = 0; cid < b.cells->num_cells(); ++cid) {
          const CellCoord& coord = b.cells->cell(cid).coord;
          float lo[CellCoord::kMaxDim];
          float hi[CellCoord::kMaxDim];
          ASSERT_TRUE(SubcellRangeMbr(dict, coord, lo, hi));
          dict.QueryCell(coord, lo, hi, &cand, spec);
          const Expected e =
              BruteQueryCell(dict, coord, lo, hi, qeps, skipping);
          ASSERT_EQ(cand.always_count, e.always_count) << "cell " << cid;
          std::vector<uint32_t> always = cand.always_neighbors;
          std::sort(always.begin(), always.end());
          ASSERT_EQ(always, e.always) << "cell " << cid;
          ASSERT_EQ(cand.cell_ids, e.maybe) << "cell " << cid;
          for (size_t i = 0; i < cand.num_maybe(); ++i) {
            const auto [sd, local] = where[cand.cell_ids[i]];
            ASSERT_EQ(cand.total_counts[i], sd->cells()[local].total_count);
            const float* mbr = sd->cell_mbr(local);
            for (size_t d = 0; d < dim; ++d) {
              ASSERT_EQ(cand.mbr_lo_t[d * cand.maybe_stride + i], mbr[d]);
              ASSERT_EQ(cand.mbr_hi_t[d * cand.maybe_stride + i],
                        mbr[dim + d]);
            }
          }
        }
      }
    }
  }
}

TEST_P(TreeEngineTest, QueryMatchesBruteForce) {
  const Shape shape = GetParam();
  const uint64_t seed = TestSeed(8200 + shape.dim);
  SCOPED_TRACE(SeedNote(seed));
  for (const bool stencil : {false, true}) {
    for (const bool skipping : {true, false}) {
      SCOPED_TRACE(std::string("stencil ") + (stencil ? "on" : "off") +
                   ", skipping " + (skipping ? "on" : "off"));
      Built b;
      Build(shape, seed, stencil, skipping, &b);
      const CellDictionary& dict = *b.dict;
      // Every third data point (the duplicates, face points and exact-eps
      // pairs included: they sit at the end) plus cell corners.
      std::vector<std::vector<float>> queries;
      for (size_t i = 0; i < b.data.size(); ++i) {
        if (i % 3 != 0 && i + 180 < b.data.size()) continue;
        queries.emplace_back(b.data.point(i), b.data.point(i) + shape.dim);
      }
      for (uint32_t cid = 0; cid < b.cells->num_cells(); cid += 7) {
        std::vector<float> corner(shape.dim);
        for (size_t d = 0; d < shape.dim; ++d) {
          corner[d] = static_cast<float>(
              b.geom.CellOrigin(b.cells->cell(cid).coord, d));
        }
        queries.push_back(corner);
      }
      for (const double scale : {1.0, 1.3}) {
        const double qeps = scale * shape.eps;
        for (size_t q = 0; q < queries.size(); ++q) {
          const float* p = queries[q].data();
          std::map<uint32_t, uint32_t> got;
          size_t visits = 0;
          dict.Query(
              p,
              [&](const DictCell& c, uint32_t matched) {
                got[c.cell_id] = matched;
                ++visits;
              },
              scale == 1.0 ? 0.0 : qeps);
          ASSERT_EQ(visits, got.size()) << "query " << q << ": repeat visit";
          ASSERT_EQ(got, BruteQuery(dict, p, qeps, skipping))
              << "query " << q;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, TreeEngineTest,
    ::testing::Values(Shape{2, 2.0}, Shape{6, 4.0}, Shape{8, 4.0},
                      Shape{13, 32.0}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "d" + std::to_string(info.param.dim);
    });

// Every ProcessOneCell list is ascending and duplicate-free: within one
// partition's edge array each cell's edges are one run with strictly
// increasing targets and no self edge, and RecomputeCells hands back the
// same lists. The per-point engine feeds the dedup real duplicates.
void CheckEdgeLists(const Built& b, const Phase2Options& opts,
                    size_t min_pts, size_t threads,
                    std::vector<std::vector<uint32_t>>* lists) {
  ThreadPool pool(threads);
  const Phase2Result r =
      BuildSubgraphs(b.data, *b.cells, *b.dict, min_pts, pool, opts);
  lists->assign(b.cells->num_cells(), {});
  std::vector<uint8_t> seen(b.cells->num_cells(), 0);
  for (const CellSubgraph& g : r.subgraphs) {
    for (size_t i = 0; i < g.edges.size(); ++i) {
      const CellEdge& e = g.edges[i];
      ASSERT_NE(e.from, e.to);
      if (i > 0 && g.edges[i - 1].from == e.from) {
        ASSERT_LT(g.edges[i - 1].to, e.to) << "cell " << e.from;
      } else {
        ASSERT_EQ(seen[e.from], 0) << "cell " << e.from << " split";
        seen[e.from] = 1;
      }
      (*lists)[e.from].push_back(e.to);
    }
  }
  std::vector<uint32_t> all(b.cells->num_cells());
  for (uint32_t c = 0; c < all.size(); ++c) all[c] = c;
  std::vector<uint8_t> core(b.data.size(), 0);
  const Phase2CellUpdate u = RecomputeCells(b.data, *b.cells, *b.dict,
                                            min_pts, pool, opts, all,
                                            core.data());
  for (uint32_t c = 0; c < all.size(); ++c) {
    ASSERT_EQ(u.cell_edges[c], (*lists)[c]) << "cell " << c;
  }
}

TEST(TreeEngineEdgeListTest, AscendingAndDuplicateFreeOnEveryEngine) {
  for (const Shape shape : {Shape{2, 2.0}, Shape{13, 32.0}}) {
    const uint64_t seed = TestSeed(8300 + shape.dim);
    SCOPED_TRACE(SeedNote(seed) + ", d " + std::to_string(shape.dim));
    Built b;
    Build(shape, seed, /*stencil=*/true, /*skipping=*/true, &b);
    std::vector<std::vector<uint32_t>> reference;
    for (const int engine : {0, 1, 2}) {  // stencil, tree, per-point
      Phase2Options opts;
      opts.stencil_queries = engine == 0;
      opts.batched_queries = engine != 2;
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("engine " + std::to_string(engine) + ", threads " +
                     std::to_string(threads));
        std::vector<std::vector<uint32_t>> lists;
        CheckEdgeLists(b, opts, 10, threads, &lists);
        if (reference.empty()) reference = lists;
        ASSERT_EQ(lists, reference);
      }
    }
  }
}

RpDbscanOptions Opts(const Shape& shape, size_t threads, bool stencil) {
  RpDbscanOptions o;
  o.eps = shape.eps;
  o.min_pts = 10;
  o.num_threads = threads;
  o.num_partitions = 8;
  o.max_cells_per_subdict = 64;
  o.stencil_queries = stencil;
  return o;
}

TEST(TreeEngineRunTest, LabelsEqualStencilEngineAtLowDimension) {
  const Shape shape{2, 2.0};
  const uint64_t seed = TestSeed(8400);
  SCOPED_TRACE(SeedNote(seed));
  const Dataset data = MakeData(shape, seed);
  auto stencil = RunRpDbscan(data, Opts(shape, 2, true));
  ASSERT_TRUE(stencil.ok()) << stencil.status();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    auto tree = RunRpDbscan(data, Opts(shape, threads, false));
    ASSERT_TRUE(tree.ok()) << tree.status();
    EXPECT_EQ(tree->labels, stencil->labels) << threads << " threads";
  }
}

// Theorem 5.4 against exact DBSCAN at (1 -+ rho/2) eps. (a) is strict:
// points core and co-clustered at the lower radius are co-clustered, and
// not noise. (b) follows the sandwich property test: pairs core at the
// lower radius and co-clustered here are co-clustered at the upper one,
// up to the border ambiguity it tolerates.
TEST(TreeEngineRunTest, LabelsInsideTheSandwichAtHighDimension) {
  for (const Shape shape : {Shape{6, 4.0}, Shape{13, 32.0}}) {
    const uint64_t seed = TestSeed(8500 + shape.dim);
    SCOPED_TRACE(SeedNote(seed) + ", d " + std::to_string(shape.dim));
    const Dataset data = MakeData(shape, seed);
    auto one = RunRpDbscan(data, Opts(shape, 1, false));
    auto four = RunRpDbscan(data, Opts(shape, 4, false));
    ASSERT_TRUE(one.ok()) << one.status();
    ASSERT_TRUE(four.ok()) << four.status();
    ASSERT_EQ(one->labels, four->labels);
    const double rho = 0.01;
    auto lower =
        RunExactDbscan(data, {(1.0 - rho / 2) * shape.eps, size_t{10}});
    auto upper =
        RunExactDbscan(data, {(1.0 + rho / 2) * shape.eps, size_t{10}});
    ASSERT_TRUE(lower.ok());
    ASSERT_TRUE(upper.ok());
    const Labels& rp = one->labels;
    std::map<int64_t, int64_t> lower_to_rp;
    size_t lower_core = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      if (!lower->point_is_core[i]) continue;
      ++lower_core;
      ASSERT_NE(rp[i], kNoise) << "point " << i;
      const auto [it, fresh] = lower_to_rp.emplace(lower->labels[i], rp[i]);
      ASSERT_EQ(it->second, rp[i]) << "point " << i << " split";
    }
    ASSERT_GT(lower_core, data.size() / 4);
    Rng rng(seed * 31 + 7);
    size_t checked = 0;
    size_t violations = 0;
    for (int trial = 0; trial < 20000; ++trial) {
      const size_t a = static_cast<size_t>(rng.Uniform(data.size()));
      const size_t c = static_cast<size_t>(rng.Uniform(data.size()));
      if (a == c || !lower->point_is_core[a] || !lower->point_is_core[c] ||
          rp[a] != rp[c]) {
        continue;
      }
      ++checked;
      if (upper->labels[a] != upper->labels[c]) ++violations;
    }
    ASSERT_GT(checked, 100u);
    EXPECT_LE(static_cast<double>(violations),
              0.01 * static_cast<double>(checked))
        << violations << "/" << checked;
  }
}

}  // namespace
}  // namespace rpdbscan
