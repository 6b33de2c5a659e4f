#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "parallel/thread_pool.h"
#include "synth/generators.h"
#include "util/random.h"

namespace rpdbscan {
namespace {

struct Built {
  Dataset data{2};
  StatusOr<CellSet> cells = Status::Internal("unset");
  StatusOr<CellDictionary> dict = Status::Internal("unset");

  Built(Dataset ds, double eps, double rho) : data(std::move(ds)) {
    auto geom = GridGeometry::Create(data.dim(), eps, rho);
    EXPECT_TRUE(geom.ok());
    cells = CellSet::Build(data, *geom, 4, 7);
    EXPECT_TRUE(cells.ok());
    dict = CellDictionary::Build(data, *cells);
    EXPECT_TRUE(dict.ok());
  }
};

// Query result snapshot for comparing two dictionaries.
std::map<uint32_t, uint32_t> Snapshot(const CellDictionary& dict,
                                      const float* q) {
  std::map<uint32_t, uint32_t> out;
  dict.Query(q, [&](const DictCell& c, uint32_t n) { out[c.cell_id] += n; });
  return out;
}

TEST(DictionaryCodecTest, RoundTripPreservesStructure) {
  Built b(synth::Blobs(3000, 4, 1.5, 61), 1.0, 0.05);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  auto back = CellDictionary::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_cells(), b.dict->num_cells());
  EXPECT_EQ(back->num_subcells(), b.dict->num_subcells());
  EXPECT_EQ(back->SizeBitsLemma43(), b.dict->SizeBitsLemma43());
  EXPECT_EQ(back->geom().dim(), b.dict->geom().dim());
  EXPECT_DOUBLE_EQ(back->geom().eps(), b.dict->geom().eps());
  EXPECT_DOUBLE_EQ(back->geom().rho(), b.dict->geom().rho());
}

TEST(DictionaryCodecTest, RoundTripPreservesQueries) {
  Built b(synth::Blobs(2500, 3, 1.5, 62), 1.1, 0.05);
  auto back = CellDictionary::Deserialize(b.dict->Serialize());
  ASSERT_TRUE(back.ok());
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const float* q =
        b.data.point(static_cast<size_t>(rng.Uniform(b.data.size())));
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q)) << trial;
  }
}

TEST(DictionaryCodecTest, RoundTripHighDimensional) {
  // 13-d: sub-cell positions exceed 64 bits (91 bits), exercising the
  // two-word bit packing.
  Built b(synth::TeraLike(1500, 63), 20.0, 0.01);
  auto back = CellDictionary::Deserialize(b.dict->Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_subcells(), b.dict->num_subcells());
  for (size_t i = 0; i < 20; ++i) {
    const float* q = b.data.point(i * 7);
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q));
  }
}

TEST(DictionaryCodecTest, WireSizeTracksLemma43) {
  Built b(synth::Blobs(5000, 4, 1.5, 64), 1.0, 0.05);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  const size_t lemma = b.dict->SizeBytesLemma43();
  // The wire format adds a header plus one 32-bit id and one 32-bit
  // sub-cell count per cell beyond Eq. (1)'s accounting.
  const size_t overhead = 64 + 8 * b.dict->num_cells() + 16;
  EXPECT_GE(wire.size(), lemma * 9 / 10);
  EXPECT_LE(wire.size(), lemma + overhead);
}

TEST(DictionaryCodecTest, NegativeCellCoordinatesSurvive) {
  Dataset ds(2);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    ds.Append({static_cast<float>(rng.UniformDouble(-50, 50)),
               static_cast<float>(rng.UniformDouble(-50, 50))});
  }
  Built b(std::move(ds), 2.0, 0.1);
  auto back = CellDictionary::Deserialize(b.dict->Serialize());
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < 20; ++i) {
    const float* q = b.data.point(i);
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q));
  }
}

TEST(DictionaryCodecTest, RejectsBadMagic) {
  Built b(synth::Blobs(200, 2, 1.5, 65), 1.0, 0.1);
  std::vector<uint8_t> wire = b.dict->Serialize();
  wire[0] ^= 0xFF;
  EXPECT_FALSE(CellDictionary::Deserialize(wire).ok());
}

TEST(DictionaryCodecTest, RejectsBadVersion) {
  Built b(synth::Blobs(200, 2, 1.5, 66), 1.0, 0.1);
  std::vector<uint8_t> wire = b.dict->Serialize();
  wire[4] = 0x7F;
  EXPECT_FALSE(CellDictionary::Deserialize(wire).ok());
}

TEST(DictionaryCodecTest, RejectsEmptyAndTinyBuffers) {
  EXPECT_FALSE(CellDictionary::Deserialize({}).ok());
  EXPECT_FALSE(CellDictionary::Deserialize({0x44, 0x44, 0x50, 0x52}).ok());
}

TEST(DictionaryCodecTest, RejectsAllTruncations) {
  // Every strict prefix of a valid buffer must be rejected, never crash.
  Built b(synth::Blobs(300, 3, 1.5, 67), 1.0, 0.1);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  for (size_t len = 0; len < wire.size();
       len += (len < 64 ? 1 : 97)) {  // dense near the header, then strided
    const std::vector<uint8_t> prefix(wire.begin(), wire.begin() + len);
    EXPECT_FALSE(CellDictionary::Deserialize(prefix).ok())
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(DictionaryCodecTest, FuzzRandomCorruptionNeverCrashes) {
  Built b(synth::Blobs(400, 3, 1.5, 68), 1.0, 0.1);
  const std::vector<uint8_t> wire = b.dict->Serialize();
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupt = wire;
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      corrupt[rng.Uniform(corrupt.size())] ^=
          static_cast<uint8_t>(1u << rng.Uniform(8));
    }
    // Must either fail cleanly or decode into *some* structurally valid
    // dictionary; both are fine, crashing/UB is not.
    auto r = CellDictionary::Deserialize(corrupt);
    if (r.ok()) {
      EXPECT_EQ(r->num_cells() == 0, false);
    }
  }
}

TEST(DictionaryCodecTest, DeserializeHonorsReceiverOptions) {
  Built b(synth::Blobs(4000, 5, 1.5, 69), 0.8, 0.1);
  CellDictionaryOptions small;
  small.max_cells_per_subdict = 16;
  auto back = CellDictionary::Deserialize(b.dict->Serialize(), small);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(back->num_subdictionaries(),
            b.dict->num_subdictionaries());
  // Queries unchanged regardless of fragmentation.
  for (size_t i = 0; i < 10; ++i) {
    const float* q = b.data.point(i * 31);
    EXPECT_EQ(Snapshot(*b.dict, q), Snapshot(*back, q));
  }
}

// A dictionary spanning several encode/decode slices (thousands of cells
// and sub-cells) and fragments.
struct Large {
  Dataset data;
  GridGeometry geom;
  StatusOr<CellSet> cells = Status::Internal("unset");

  Large(Dataset ds, double eps, double rho) : data(std::move(ds)) {
    auto g = GridGeometry::Create(data.dim(), eps, rho);
    EXPECT_TRUE(g.ok());
    geom = *g;
    cells = CellSet::Build(data, geom, 8, 7);
    EXPECT_TRUE(cells.ok());
  }
};

Dataset Uniform2(size_t n, double span, uint64_t seed) {
  Dataset ds(2);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    ds.Append({static_cast<float>(rng.UniformDouble(-span, span)),
               static_cast<float>(rng.UniformDouble(-span, span))});
  }
  return ds;
}

std::string Outcome(const StatusOr<CellDictionary>& r) {
  return r.ok() ? "ok" : r.status().ToString();
}

TEST(DictionaryCodecTest, SerializeIsThreadCountInvariant) {
  // The sliced encoder must emit the sequential layout byte for byte at
  // any thread count, from a full dictionary and from the broadcast
  // sender's layout-only one (Build and FromEntries alike). 2-d uses
  // 14-bit positions; 13-d uses 91-bit (two-word) positions.
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  const std::vector<ThreadPool*> pools = {nullptr, &pool1, &pool2, &pool4};
  for (const bool high_dim : {false, true}) {
    Large f(high_dim ? synth::TeraLike(12000, 70) : Uniform2(20000, 30, 71),
            high_dim ? 20.0 : 0.3, 0.01);
    auto full = CellDictionary::Build(f.data, *f.cells);
    ASSERT_TRUE(full.ok());
    ASSERT_GT(full->num_subcells(), 8 * 512u);  // many slices
    const std::vector<uint8_t> expected = full->Serialize();
    std::vector<CellEntry> entries;
    for (uint32_t cid = 0; cid < f.cells->num_cells(); ++cid) {
      entries.push_back(CellDictionary::MakeCellEntry(
          f.data, f.geom, f.cells->cell(cid), cid));
    }
    // The receiver re-runs the BSP over the decoded wire order, so its
    // layout (and re-encoding) may differ from the sender's, but never
    // with the thread count.
    auto decoded = CellDictionary::Deserialize(expected);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    const std::vector<uint8_t> reencoded = decoded->Serialize();
    for (ThreadPool* pool : pools) {
      const size_t t = pool == nullptr ? 0 : pool->num_threads();
      EXPECT_EQ(full->Serialize(pool), expected) << "threads " << t;
      auto wire = CellDictionary::Build(f.data, *f.cells,
                                        CellDictionaryOptions(), pool,
                                        DictionaryBuild::kWireOnly);
      ASSERT_TRUE(wire.ok());
      EXPECT_FALSE(wire->queryable());
      EXPECT_EQ(wire->Serialize(pool), expected) << "threads " << t;
      auto from = CellDictionary::FromEntries(
          f.geom, entries, CellDictionaryOptions(), pool,
          DictionaryBuild::kWireOnly);
      ASSERT_TRUE(from.ok());
      EXPECT_EQ(from->Serialize(pool), expected) << "threads " << t;
      auto back = CellDictionary::Deserialize(expected,
                                              CellDictionaryOptions(), pool);
      ASSERT_TRUE(back.ok()) << back.status();
      EXPECT_TRUE(back->queryable());
      EXPECT_EQ(back->Serialize(pool), reencoded) << "threads " << t;
    }
  }
}

TEST(DictionaryCodecTest, DeserializeStatusIsThreadCountInvariant) {
  // A corrupt buffer reports the same Status at 1 and 4 threads: the
  // first failing record in wire order, as a sequential decoder meets it.
  Large f(Uniform2(1300, 6, 72), 0.3, 0.01);
  auto dict = CellDictionary::Build(f.data, *f.cells);
  ASSERT_TRUE(dict.ok());
  // Several decode slices of cell records (256) and of positions (512).
  ASSERT_GT(dict->num_cells(), 3 * 256u);
  ASSERT_GT(dict->num_subcells(), 2 * 512u);
  const std::vector<uint8_t> wire = dict->Serialize();
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  auto both = [&](const std::vector<uint8_t>& bytes) {
    const std::string one =
        Outcome(CellDictionary::Deserialize(bytes, {}, &pool1));
    const std::string four =
        Outcome(CellDictionary::Deserialize(bytes, {}, &pool4));
    EXPECT_EQ(one, four);
    return one;
  };

  const size_t n = dict->num_cells();
  const size_t m = dict->num_subcells();
  const size_t record = 4 * (2 + 2);
  const size_t cells_at = 44;
  const size_t densities_at = cells_at + n * record;
  const size_t packed_len_at = densities_at + m * 4;
  // Every truncation.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_NE(both(std::vector<uint8_t>(wire.begin(), wire.begin() + len)),
              "ok")
        << "prefix of " << len << " bytes";
  }

  auto set_u32 = [](std::vector<uint8_t>& b, size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) b[at + i] = static_cast<uint8_t>(v >> 8 * i);
  };
  auto count_at = [&](size_t cell) { return cells_at + cell * record + 12; };
  // Ordered failures: the earlier record wins, wherever the slices fall.
  {
    std::vector<uint8_t> b = wire;
    set_u32(b, count_at(n - 10), 0);           // empty cell, late
    set_u32(b, count_at(n / 3), 0x7fffffffu);  // overflow, earlier
    EXPECT_EQ(both(b),
              "InvalidArgument: dictionary buffer: sub-cell count overflow");
    b = wire;
    set_u32(b, count_at(n / 3), 0);             // empty cell, earlier
    set_u32(b, count_at(n - 10), 0x7fffffffu);  // overflow, late
    EXPECT_EQ(both(b),
              "InvalidArgument: dictionary buffer: cell with zero sub-cells");
    b = wire;
    set_u32(b, densities_at + 4 * (m - 3), 0);
    EXPECT_EQ(both(b),
              "InvalidArgument: dictionary buffer: zero-density sub-cell");
  }
  // Seeded corruptions of the count and length fields.
  Rng rng(17);
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<uint8_t> b = wire;
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.Uniform(5)) {
        case 0:  // a cell's sub-cell count
          set_u32(b, count_at(rng.Uniform(n)),
                  static_cast<uint32_t>(rng.Uniform(8)));
          break;
        case 1:  // a density
          set_u32(b, densities_at + 4 * rng.Uniform(m),
                  static_cast<uint32_t>(rng.Uniform(2)));
          break;
        case 2:  // header cell total
          set_u32(b, 28, static_cast<uint32_t>(n + rng.Uniform(9) - 4));
          break;
        case 3:  // header sub-cell total
          set_u32(b, 36, static_cast<uint32_t>(m + rng.Uniform(9) - 4));
          break;
        default:  // position stream length
          set_u32(b, packed_len_at,
                  static_cast<uint32_t>(wire.size() - packed_len_at - 8 +
                                        rng.Uniform(9) - 4));
          break;
      }
    }
    both(b);
  }
}

}  // namespace
}  // namespace rpdbscan
