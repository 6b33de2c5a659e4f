#include "core/cell_dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <type_traits>
#include <vector>

#include "parallel/thread_pool.h"
#include "synth/generators.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

// The per-slot metadata and the R-tree point into the dictionary's own
// arrays: a move carries them along, a copy would leave them dangling
// into the source. Copies must not compile.
static_assert(!std::is_copy_constructible_v<CellDictionary>);
static_assert(!std::is_copy_assignable_v<CellDictionary>);
static_assert(std::is_nothrow_move_constructible_v<CellDictionary>);

struct Fixture {
  Dataset data{2};
  GridGeometry geom;
  StatusOr<CellSet> cells = Status::Internal("unset");

  Fixture(Dataset ds, double eps, double rho, size_t parts = 4)
      : data(std::move(ds)) {
    auto g = GridGeometry::Create(data.dim(), eps, rho);
    EXPECT_TRUE(g.ok());
    geom = *g;
    cells = CellSet::Build(data, geom, parts, 7);
    EXPECT_TRUE(cells.ok());
  }
};

// Reference (eps,rho)-region query: for every point, recompute every
// sub-cell center from raw points and sum densities of centers within eps.
// Mirrors Def. 5.1 with no indexing, no skipping, no containment fast path.
std::map<uint32_t, uint32_t> BruteQuery(const Fixture& f, const float* q) {
  std::map<uint32_t, uint32_t> per_cell;
  const double eps2 = f.geom.eps() * f.geom.eps();
  for (uint32_t cid = 0; cid < f.cells->num_cells(); ++cid) {
    const CellData& cell = f.cells->cell(cid);
    // Histogram sub-cells of this cell.
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> hist;
    std::map<std::pair<uint64_t, uint64_t>, SubcellId> ids;
    for (const uint32_t pid : cell.point_ids) {
      const SubcellId sc = f.geom.SubcellOf(f.data.point(pid), cell.coord);
      ++hist[{sc.hi, sc.lo}];
      ids[{sc.hi, sc.lo}] = sc;
    }
    uint32_t matched = 0;
    for (const auto& kv : hist) {
      float center[CellCoord::kMaxDim];
      f.geom.SubcellCenter(cell.coord, ids[kv.first], center);
      if (DistanceSquared(q, center, f.data.dim()) <= eps2) {
        matched += kv.second;
      }
    }
    if (matched > 0) per_cell[cid] = matched;
  }
  return per_cell;
}

std::map<uint32_t, uint32_t> DictQuery(const CellDictionary& dict,
                                       const float* q) {
  std::map<uint32_t, uint32_t> per_cell;
  dict.Query(q, [&](const DictCell& c, uint32_t matched) {
    per_cell[c.cell_id] += matched;
  });
  return per_cell;
}

TEST(CellDictionaryTest, CountsMatchData) {
  Fixture f(synth::Blobs(3000, 4, 2.0, 1), /*eps=*/1.0, /*rho=*/0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->num_cells(), f.cells->num_cells());
  size_t total = 0;
  for (const SubDictionary& sd : dict->subdictionaries()) {
    for (const DictCell& c : sd.cells()) {
      total += c.total_count;
      uint32_t from_subcells = 0;
      for (uint32_t s = c.subcell_begin; s < c.subcell_end; ++s) {
        from_subcells += sd.subcells()[s].count;
      }
      EXPECT_EQ(from_subcells, c.total_count);
      EXPECT_EQ(c.total_count,
                f.cells->cell(c.cell_id).point_ids.size());
    }
  }
  EXPECT_EQ(total, f.data.size());
}

TEST(CellDictionaryTest, QueryMatchesBruteForce) {
  Fixture f(synth::Blobs(2000, 3, 2.0, 2), /*eps=*/1.2, /*rho=*/0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t pid = static_cast<uint32_t>(rng.Uniform(f.data.size()));
    const float* q = f.data.point(pid);
    EXPECT_EQ(DictQuery(*dict, q), BruteQuery(f, q)) << "trial " << trial;
  }
}

TEST(CellDictionaryTest, QueryMatchesBruteForceOffDataPoints) {
  Fixture f(synth::Blobs(1500, 3, 2.0, 5), /*eps=*/0.9, /*rho=*/0.1);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  Rng rng(4);
  for (int trial = 0; trial < 25; ++trial) {
    const float q[2] = {static_cast<float>(rng.UniformDouble(0, 100)),
                        static_cast<float>(rng.UniformDouble(0, 100))};
    EXPECT_EQ(DictQuery(*dict, q), BruteQuery(f, q)) << "trial " << trial;
  }
}

TEST(CellDictionaryTest, DefragAndSkippingDoNotChangeResults) {
  Fixture f(synth::Blobs(2000, 4, 2.0, 6), /*eps=*/1.0, /*rho=*/0.05);
  CellDictionaryOptions plain;
  plain.defragment = false;
  plain.enable_skipping = false;
  CellDictionaryOptions tuned;
  tuned.defragment = true;
  tuned.enable_skipping = true;
  tuned.max_cells_per_subdict = 64;
  auto d1 = CellDictionary::Build(f.data, *f.cells, plain);
  auto d2 = CellDictionary::Build(f.data, *f.cells, tuned);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->num_subdictionaries(), 1u);
  EXPECT_GT(d2->num_subdictionaries(), 1u);
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t pid = static_cast<uint32_t>(rng.Uniform(f.data.size()));
    const float* q = f.data.point(pid);
    EXPECT_EQ(DictQuery(*d1, q), DictQuery(*d2, q));
  }
}

TEST(CellDictionaryTest, SkippingVisitsFewerSubdictionaries) {
  Fixture f(synth::Blobs(4000, 6, 1.5, 7), /*eps=*/0.8, /*rho=*/0.1);
  CellDictionaryOptions opts;
  opts.max_cells_per_subdict = 32;
  auto with = CellDictionary::Build(f.data, *f.cells, opts);
  opts.enable_skipping = false;
  auto without = CellDictionary::Build(f.data, *f.cells, opts);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  const float* q = f.data.point(0);
  auto ignore = [](const DictCell&, uint32_t) {};
  EXPECT_LT(with->Query(q, ignore), without->Query(q, ignore));
}

TEST(CellDictionaryTest, RTreeIndexGivesIdenticalResults) {
  // Lemma 5.6 names "R*-tree or kd-tree"; both indexes must agree.
  Fixture f(synth::Blobs(2500, 4, 2.0, 13), /*eps=*/1.0, /*rho=*/0.05);
  CellDictionaryOptions kd;
  kd.index = CandidateIndex::kKdTree;
  CellDictionaryOptions rt;
  rt.index = CandidateIndex::kRTree;
  auto d1 = CellDictionary::Build(f.data, *f.cells, kd);
  auto d2 = CellDictionary::Build(f.data, *f.cells, rt);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t pid = static_cast<uint32_t>(rng.Uniform(f.data.size()));
    const float* q = f.data.point(pid);
    EXPECT_EQ(DictQuery(*d1, q), DictQuery(*d2, q)) << trial;
  }
}

TEST(CellDictionaryTest, SizeFormulaLemma43) {
  Fixture f(synth::Blobs(1000, 3, 2.0, 8), /*eps=*/1.0, /*rho=*/0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  const size_t d = 2;
  const size_t h = 6;  // rho=0.05 -> h=6
  const size_t expect_bits =
      32 * (dict->num_cells() + dict->num_subcells()) +
      32 * d * dict->num_cells() + d * (h - 1) * dict->num_subcells();
  EXPECT_EQ(dict->SizeBitsLemma43(), expect_bits);
  EXPECT_EQ(dict->SizeBytesLemma43(), (expect_bits + 7) / 8);
}

TEST(CellDictionaryTest, DictionaryIsSmallerThanDataAtScale) {
  // Table 5's premise: the dictionary compresses the data set. With
  // rho = 0.10 and clustered data, many points share sub-cells.
  Fixture f(synth::Blobs(50000, 5, 1.0, 9), /*eps=*/2.0, /*rho=*/0.10);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  EXPECT_LT(dict->SizeBytesLemma43(), f.data.PayloadBytes());
}

TEST(CellDictionaryTest, LargerEpsShrinksDictionary) {
  // The paper's observation (Sec. 7.2.1): dictionaries get more compact as
  // eps grows because (sub-)cells grow.
  const Dataset ds = synth::Blobs(20000, 5, 1.0, 10);
  size_t prev = SIZE_MAX;
  for (const double eps : {0.5, 1.0, 2.0, 4.0}) {
    Fixture f(ds, eps, 0.05);
    auto dict = CellDictionary::Build(f.data, *f.cells);
    ASSERT_TRUE(dict.ok());
    const size_t bytes = dict->SizeBytesLemma43();
    EXPECT_LT(bytes, prev) << "eps=" << eps;
    prev = bytes;
  }
}

TEST(CellDictionaryTest, RejectsZeroBudget) {
  Fixture f(synth::Blobs(100, 2, 2.0, 11), 1.0, 0.1);
  CellDictionaryOptions opts;
  opts.max_cells_per_subdict = 0;
  EXPECT_FALSE(CellDictionary::Build(f.data, *f.cells, opts).ok());
}

TEST(CellDictionaryTest, QueryCountIncludesOwnSubcell) {
  // A point always finds at least itself (its own sub-cell's density).
  Fixture f(synth::Blobs(500, 2, 2.0, 12), 1.0, 0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_GE(dict->QueryCount(f.data.point(i)), 1u);
  }
}

// Random points on a box of `width` lattice cells per axis, centered on
// the origin so cell coordinates take both signs.
Dataset LatticeBox(size_t dim, size_t n, int width, double side,
                   uint64_t seed) {
  Rng rng(seed);
  Dataset ds(dim);
  std::vector<float> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      p[d] = static_cast<float>(
          rng.UniformDouble(-0.5 * width * side, 0.5 * width * side));
    }
    ds.Append(p.data());
  }
  return ds;
}

// Every cell's stencil neighbors by brute force over all cell pairs: the
// cells whose lattice offset o satisfies m(o) <= budget (the stencil's own
// integer criterion), as sorted global slots.
std::vector<std::vector<uint32_t>> BruteNeighborhoods(
    const CellDictionary& dict) {
  const size_t n = dict.num_cells();
  const size_t dim = dict.geom().dim();
  const int32_t* rc = dict.ref_coords().data();
  const double budget = dict.stencil().budget();
  std::vector<std::vector<uint32_t>> out(n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      if (t == s) continue;
      uint64_t m = 0;
      for (size_t d = 0; d < dim; ++d) {
        const int64_t a =
            std::abs(int64_t{rc[t * dim + d]} - int64_t{rc[s * dim + d]});
        if (a > 1) m += static_cast<uint64_t>((a - 1) * (a - 1));
      }
      if (static_cast<double>(m) <= budget) {
        out[s].push_back(static_cast<uint32_t>(t));
      }
    }
  }
  return out;
}

std::vector<uint32_t> FlatCsr(const CellDictionary& dict) {
  std::vector<uint32_t> flat;
  for (size_t s = 0; s < dict.num_cells(); ++s) {
    size_t count = 0;
    const uint32_t* nbr = dict.StencilNeighborsOf(s, &count);
    flat.push_back(static_cast<uint32_t>(count));
    flat.insert(flat.end(), nbr, nbr + count);
  }
  return flat;
}

TEST(CellDictionaryTest, StencilCsrMatchesBruteForceLattice) {
  // The pencil-sweep CSR against an O(n^2) enumeration of the lattice
  // criterion, for d = 1..5 at stencil scales 1, 2 and 8. Each list holds
  // its own cell first, then exactly the brute-force set, and the arrays
  // are identical with no pool and at 1, 2 and 4 threads.
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  size_t checked = 0;
  for (size_t dim = 1; dim <= 5; ++dim) {
    for (const double scale : {1.0, 2.0, 8.0}) {
      const double budget = LatticeStencil::ScaledBudget(dim, scale);
      const int radius = 1 + static_cast<int>(std::sqrt(budget));
      // Wide enough that windows are partly empty, small enough that
      // most cells have neighbors; point count shrinks with the volume.
      const int width = dim == 1 ? 60 * radius : 3 * radius + 3;
      const size_t n = dim <= 2 ? 600 : dim == 3 ? 300 : 120;
      auto geom = GridGeometry::Create(dim, 1.0, 0.5);
      ASSERT_TRUE(geom.ok());
      const Dataset data = LatticeBox(dim, n, width, geom->cell_side(),
                                      100 * dim + static_cast<int>(scale));
      auto cells = CellSet::Build(data, *geom, 4, 7);
      ASSERT_TRUE(cells.ok());
      CellDictionaryOptions opts;
      opts.stencil_eps_scale = scale;
      opts.max_stencil_offsets = 1 << 19;
      opts.max_cells_per_subdict = 64;  // several fragments
      auto serial = CellDictionary::Build(data, *cells, opts);
      ASSERT_TRUE(serial.ok());
      if (!serial->has_stencil()) {
        // Only the 5-d scale-8 family is past the raised cap (millions of
        // offsets): the tree fallback, nothing to compare.
        EXPECT_TRUE(dim == 5 && scale == 8.0);
        continue;
      }
      const std::vector<std::vector<uint32_t>> brute =
          BruteNeighborhoods(*serial);
      for (size_t s = 0; s < serial->num_cells(); ++s) {
        size_t count = 0;
        const uint32_t* nbr = serial->StencilNeighborsOf(s, &count);
        ASSERT_GE(count, 1u);
        EXPECT_EQ(nbr[0], s) << "dim " << dim << " scale " << scale;
        std::vector<uint32_t> got(nbr + 1, nbr + count);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, brute[s])
            << "dim " << dim << " scale " << scale << " slot " << s;
      }
      const std::vector<uint32_t> expected = FlatCsr(*serial);
      // The 4-d scale-8 family has ~480k offsets, and each rebuild pays
      // its enumeration again: check that one at 4 threads only.
      const bool huge = serial->stencil().num_offsets() > 100000;
      for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
        if (huge && pool != &pool4) continue;
        auto par = CellDictionary::Build(data, *cells, opts, pool);
        ASSERT_TRUE(par.ok());
        EXPECT_EQ(FlatCsr(*par), expected)
            << "dim " << dim << " scale " << scale << " threads "
            << pool->num_threads();
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 14u);
}

TEST(CellDictionaryTest, LargeCsrIsThreadCountInvariant) {
  // Enough cells for many pencils per task and several radix-sort chunks.
  const Dataset data = synth::GeoLifeLike(30000, 5);
  auto geom = GridGeometry::Create(3, 2.0, 0.01);
  ASSERT_TRUE(geom.ok());
  auto cells = CellSet::Build(data, *geom, 8, 3);
  ASSERT_TRUE(cells.ok());
  auto serial = CellDictionary::Build(data, *cells);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->has_stencil());
  const std::vector<uint32_t> expected = FlatCsr(*serial);
  for (const size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    auto par = CellDictionary::Build(data, *cells, CellDictionaryOptions(),
                                     &pool);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(FlatCsr(*par), expected) << threads;
  }
}

TEST(CellDictionaryTest, MakeCellEntryIsSortedHistogram) {
  // The sort-and-run-length histogram against a map-built reference.
  Fixture f(synth::Blobs(4000, 3, 1.0, 13), 0.8, 0.02);
  for (uint32_t cid = 0; cid < f.cells->num_cells(); ++cid) {
    const CellData& cell = f.cells->cell(cid);
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> hist;
    for (const uint32_t pid : cell.point_ids) {
      const SubcellId sc = f.geom.SubcellOf(f.data.point(pid), cell.coord);
      ++hist[{sc.hi, sc.lo}];
    }
    const CellEntry e =
        CellDictionary::MakeCellEntry(f.data, f.geom, cell, cid);
    ASSERT_EQ(e.subcells.size(), hist.size());
    size_t i = 0;
    for (const auto& [key, count] : hist) {
      EXPECT_EQ(e.subcells[i].id.hi, key.first);
      EXPECT_EQ(e.subcells[i].id.lo, key.second);
      EXPECT_EQ(e.subcells[i].count, count);
      ++i;
    }
  }
}

TEST(CellDictionaryTest, WireOnlyBuildRefusesQueries) {
  Fixture f(synth::Blobs(500, 2, 2.0, 14), 1.0, 0.05);
  auto dict = CellDictionary::Build(f.data, *f.cells, CellDictionaryOptions(),
                                    nullptr, DictionaryBuild::kWireOnly);
  ASSERT_TRUE(dict.ok());
  EXPECT_FALSE(dict->queryable());
  EXPECT_FALSE(dict->has_stencil());
  EXPECT_EQ(dict->num_cells(), f.cells->num_cells());
  EXPECT_DEATH(dict->QueryCount(f.data.point(0)), "wire-only");
}

}  // namespace
}  // namespace rpdbscan
