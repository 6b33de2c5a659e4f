#include "core/cell_dictionary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <utility>

#include "parallel/parallel_for.h"
#include "parallel/parallel_scan.h"
#include "parallel/parallel_sort.h"
#include "util/bitstream.h"
#include "util/logging.h"

namespace rpdbscan {
namespace {

bool SubcellIdLess(const SubcellId& a, const SubcellId& b) {
  if (a.hi != b.hi) return a.hi < b.hi;
  return a.lo < b.lo;
}

// Tight bounds of one cell's occupied sub-cell boxes, decoded from the
// packed sub-cell ids: per dimension the [min, max] occupied sub-cell
// index range, mapped to coordinates and widened one float ulp outward
// per face. The ulp absorbs the double-rounding slack of sub-cell
// assignment (floor((p - origin) / sub_side) with clamping): a point can
// sit a ~2^-52-relative error outside its decoded box, and the ~2^-24-
// relative ulp dwarfs that — so the box is conservative and covers every
// point of the cell. Same arithmetic as the old per-query
// SubcellRangeMbr (core/phase2.h), which now reads these values back.
void ComputeCellMbr(const GridGeometry& geom, const DictCell& dc,
                    const std::vector<DictSubcell>& subs, float* mbr_lo,
                    float* mbr_hi) {
  const size_t dim = geom.dim();
  const unsigned bits = geom.bits_per_dim();
  int64_t min_idx[CellCoord::kMaxDim];
  int64_t max_idx[CellCoord::kMaxDim];
  for (size_t d = 0; d < dim; ++d) {
    min_idx[d] = std::numeric_limits<int64_t>::max();
    max_idx[d] = -1;
  }
  for (uint32_t s = dc.subcell_begin; s < dc.subcell_end; ++s) {
    const SubcellId& id = subs[s].id;
    for (size_t d = 0; d < dim; ++d) {
      const int64_t i =
          bits == 0
              ? 0
              : static_cast<int64_t>(SubcellGetBits(
                    id, static_cast<unsigned>(d) * bits, bits));
      min_idx[d] = std::min(min_idx[d], i);
      max_idx[d] = std::max(max_idx[d], i);
    }
  }
  const double sub_side = geom.subcell_side();
  for (size_t d = 0; d < dim; ++d) {
    RPDBSCAN_DCHECK(max_idx[d] >= 0);
    const double origin = geom.CellOrigin(dc.coord, d);
    mbr_lo[d] = std::nextafterf(
        static_cast<float>(origin +
                           static_cast<double>(min_idx[d]) * sub_side),
        -std::numeric_limits<float>::infinity());
    mbr_hi[d] = std::nextafterf(
        static_cast<float>(origin +
                           static_cast<double>(max_idx[d] + 1) * sub_side),
        std::numeric_limits<float>::infinity());
  }
}

// One BSP cut (Sec. 4.2.2) of [begin, end) of `order` (indices into the
// cell centers): the median of the widest-spread dimension, placed with
// nth_element. Median cuts are the balance-optimal members of the paper's
// cut-candidate set. Returns the cut position.
size_t BspSplit(const float* centers, size_t dim, uint32_t* order,
                size_t begin, size_t end) {
  float lo[CellCoord::kMaxDim];
  float hi[CellCoord::kMaxDim];
  for (size_t d = 0; d < dim; ++d) {
    lo[d] = hi[d] = centers[order[begin] * dim + d];
  }
  for (size_t i = begin + 1; i < end; ++i) {
    const float* c = centers + static_cast<size_t>(order[i]) * dim;
    for (size_t d = 0; d < dim; ++d) {
      if (c[d] < lo[d]) lo[d] = c[d];
      if (c[d] > hi[d]) hi[d] = c[d];
    }
  }
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dim; ++d) {
    const double spread = static_cast<double>(hi[d]) - lo[d];
    if (spread > best_spread) {
      best_spread = spread;
      best_dim = d;
    }
  }
  const size_t mid = begin + (end - begin) / 2;
  std::nth_element(order + begin, order + mid, order + end,
                   [centers, dim, best_dim](uint32_t a, uint32_t b) {
                     return centers[a * dim + best_dim] <
                            centers[b * dim + best_dim];
                   });
  return mid;
}

// Recursive BSP over order[0, n): cut until a fragment holds at most
// `max_cells` cells. Disjoint ranges are cut independently, so large right
// halves run as tasks on `pool` while the calling thread keeps cutting the
// left ones. Every range sees exactly the cuts of a sequential recursion,
// and sorting the fragments by start restores its depth-first order.
std::vector<std::pair<size_t, size_t>> BspFragments(const float* centers,
                                                    size_t dim,
                                                    uint32_t* order, size_t n,
                                                    size_t max_cells,
                                                    ThreadPool* pool) {
  constexpr size_t kMinTaskCells = 4096;
  std::vector<std::pair<size_t, size_t>> fragments;
  std::mutex mu;
  std::function<void(size_t, size_t)> cut = [&](size_t begin, size_t end) {
    while (end - begin > max_cells) {
      const size_t mid = BspSplit(centers, dim, order, begin, end);
      if (pool != nullptr && end - mid >= kMinTaskCells) {
        pool->Submit([&cut, mid, end] { cut(mid, end); });
      } else {
        cut(mid, end);
      }
      end = mid;
    }
    std::lock_guard<std::mutex> lock(mu);
    fragments.emplace_back(begin, end);
  };
  cut(0, n);
  if (pool != nullptr) pool->Wait();
  std::sort(fragments.begin(), fragments.end());
  return fragments;
}

// ---- Wire format primitives (little-endian, fixed width). ----
//
// Writers store into a pre-sized buffer through a cursor instead of
// push_back-ing byte by byte: Serialize knows its exact output size up
// front, and every record's offset follows from the counts alone.

uint8_t* StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
  return p + 4;
}
uint8_t* StoreU64(uint8_t* p, uint64_t v) {
  p = StoreU32(p, static_cast<uint32_t>(v));
  return StoreU32(p, static_cast<uint32_t>(v >> 32));
}
uint8_t* StoreF64(uint8_t* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return StoreU64(p, bits);
}
uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

// Bounds-checked sequential reader.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = LoadU32(data_ + pos_);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = static_cast<uint64_t>(LoadU32(data_ + pos_)) |
         static_cast<uint64_t>(LoadU32(data_ + pos_ + 4)) << 32;
    pos_ += 8;
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  const uint8_t* Cursor() const { return data_ + pos_; }
  size_t Remaining() const { return size_ - pos_; }
  bool Skip(size_t n) {
    if (n > size_ - pos_) return false;
    pos_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Sub-cell positions are coded in slices of this many sub-cells; a
// multiple of 8, so every slice starts on a byte boundary whatever the
// bits per position, and slices encode and decode independently.
constexpr size_t kPositionSlice = 512;
static_assert(kPositionSlice % 8 == 0);
// Cell records and densities are fixed width: any slicing works.
constexpr size_t kRecordSlice = 256;

constexpr uint32_t kDictMagic = 0x52504444;  // "RPDD"
constexpr uint32_t kDictVersion = 1;
constexpr size_t kHeaderBytes = 3 * 4 + 2 * 8 + 2 * 8;

}  // namespace

StatusOr<CellDictionary> CellDictionary::Build(
    const Dataset& data, const CellSet& cells,
    const CellDictionaryOptions& opts, ThreadPool* pool,
    DictionaryBuild what) {
  const GridGeometry& geom = cells.geom();
  if (data.dim() != geom.dim()) {
    return Status::InvalidArgument("dataset dim does not match grid dim");
  }
  // Per-cell sub-cell histograms (Alg. 2 lines 13-17), one independent
  // task per cell.
  std::vector<CellEntry> entries(cells.num_cells());
  MaybeParallelFor(pool, entries.size(), [&](size_t id) {
    entries[id] = MakeCellEntry(data, geom,
                                cells.cell(static_cast<uint32_t>(id)),
                                static_cast<uint32_t>(id));
  });
  return FromEntries(geom, entries, opts, pool, what);
}

CellEntry CellDictionary::MakeCellEntry(const Dataset& data,
                                        const GridGeometry& geom,
                                        const CellData& cell,
                                        uint32_t cell_id) {
  CellEntry entry;
  entry.coord = cell.coord;
  entry.cell_id = cell_id;
  // Sort and run-length over the packed sub-cell ids, in a per-thread
  // buffer reused across cells — no per-cell hash map.
  thread_local std::vector<SubcellId> ids;
  ids.clear();
  for (const uint32_t pid : cell.point_ids) {
    ids.push_back(geom.SubcellOf(data.point(pid), cell.coord));
  }
  std::sort(ids.begin(), ids.end(), SubcellIdLess);
  size_t runs = ids.empty() ? 0 : 1;
  for (size_t i = 1; i < ids.size(); ++i) runs += ids[i] != ids[i - 1];
  entry.subcells.reserve(runs);
  for (size_t i = 0; i < ids.size();) {
    size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    entry.subcells.push_back(
        DictSubcell{ids[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return entry;
}

StatusOr<CellDictionary> CellDictionary::FromEntries(
    const GridGeometry& geom, const std::vector<CellEntry>& entries,
    const CellDictionaryOptions& opts, ThreadPool* pool,
    DictionaryBuild what) {
  auto dict_or = Layout(
      geom, entries.size(),
      [&](size_t i) {
        const CellEntry& e = entries[i];
        return EntryRef{&e.coord, e.cell_id, e.subcells.data(),
                        e.subcells.size()};
      },
      opts, pool);
  if (dict_or.ok() && what == DictionaryBuild::kQueryable) {
    dict_or->BuildIndex(opts, pool);
  }
  return dict_or;
}

template <typename EntryAt>
StatusOr<CellDictionary> CellDictionary::Layout(
    const GridGeometry& geom, size_t num_entries, const EntryAt& entry_at,
    const CellDictionaryOptions& opts, ThreadPool* pool) {
  if (opts.max_cells_per_subdict == 0) {
    return Status::InvalidArgument("max_cells_per_subdict must be >= 1");
  }
  CellDictionary dict;
  dict.geom_ = geom;
  dict.enable_skipping_ = opts.enable_skipping;
  dict.index_ = opts.index;
  dict.num_cells_ = num_entries;
  dict.queryable_ = false;
  const size_t n = num_entries;
  const size_t dim = geom.dim();

  // Defragmentation: BSP the cells by center into balanced, spatially
  // contiguous fragments (or keep everything in one fragment for the
  // ablation).
  std::vector<uint32_t> order(n);
  std::vector<std::pair<size_t, size_t>> fragments;
  if (opts.defragment) {
    std::vector<float> centers(n * dim);
    MaybeParallelFor(pool, n, [&](size_t i) {
      geom.CellCenter(*entry_at(i).coord, centers.data() + i * dim);
      order[i] = static_cast<uint32_t>(i);
    });
    fragments = BspFragments(centers.data(), dim, order.data(), n,
                             opts.max_cells_per_subdict, pool);
  } else {
    std::iota(order.begin(), order.end(), 0u);
    fragments.emplace_back(0, n);
  }

  // Materialization: one prefix sum over the entry sizes in layout order
  // gives every cell's sub-cell offset, after which each cell is copied
  // into its fragment independently.
  std::vector<uint64_t> sub_offset(n + 1, 0);
  MaybeParallelFor(pool, n, [&](size_t k) {
    sub_offset[k] = entry_at(order[k]).num_subcells;
  });
  dict.num_subcells_ =
      static_cast<size_t>(ExclusiveScan(sub_offset.data(), n + 1, pool));
  std::vector<size_t> frag_base(fragments.size() + 1, n);
  for (size_t f = 0; f < fragments.size(); ++f) {
    frag_base[f] = fragments[f].first;
  }
  dict.subdicts_.resize(fragments.size());
  MaybeParallelFor(
      pool, fragments.size(),
      [&](size_t f) {
        const auto [begin, end] = fragments[f];
        SubDictionary& sd = dict.subdicts_[f];
        sd.cells_.resize(end - begin);
        sd.subcells_.resize(sub_offset[end] - sub_offset[begin]);
      },
      /*chunk=*/1);
  constexpr size_t kBlock = 1024;
  MaybeParallelFor(pool, (n + kBlock - 1) / kBlock, [&](size_t b) {
    ForEachPiece(
        frag_base, b * kBlock, std::min(n, (b + 1) * kBlock),
        [&](size_t f, size_t lo, size_t hi) {
          SubDictionary& sd = dict.subdicts_[f];
          const size_t first = fragments[f].first;
          for (size_t i = lo; i < hi; ++i) {
            const EntryRef e = entry_at(order[first + i]);
            DictCell& dc = sd.cells_[i];
            dc.coord = *e.coord;
            dc.cell_id = e.cell_id;
            dc.subcell_begin = static_cast<uint32_t>(
                sub_offset[first + i] - sub_offset[first]);
            dc.subcell_end =
                dc.subcell_begin + static_cast<uint32_t>(e.num_subcells);
            DictSubcell* dst = sd.subcells_.data() + dc.subcell_begin;
            uint32_t total = 0;
            for (size_t s = 0; s < e.num_subcells; ++s) {
              dst[s] = e.subcells[s];
              total += e.subcells[s].count;
            }
            dc.total_count = total;
          }
        });
  });
  return dict;
}

void CellDictionary::BuildIndex(const CellDictionaryOptions& opts,
                                ThreadPool* pool) {
  const GridGeometry& geom = geom_;
  const size_t dim = geom.dim();
  const size_t nfrag = subdicts_.size();

  // Per fragment: its bounding box (Lemma 5.10 skipping), cell centers and
  // pre-decoded sub-cell centers for the distance tests — plus the
  // fragment's sub-cell center bounds, which the quantization frame below
  // combines.
  std::vector<double> frag_lo(nfrag * dim,
                              std::numeric_limits<double>::infinity());
  std::vector<double> frag_hi(nfrag * dim,
                              -std::numeric_limits<double>::infinity());
  MaybeParallelFor(
      pool, nfrag,
      [&](size_t f) {
        SubDictionary& sd = subdicts_[f];
        const size_t ncells = sd.cells_.size();
        sd.mbr_ = Mbr(dim);
        sd.cell_centers_.resize(ncells * dim);
        sd.subcell_centers_.resize(sd.subcells_.size() * dim);
        for (size_t i = 0; i < ncells; ++i) {
          const DictCell& dc = sd.cells_[i];
          geom.CellCenter(dc.coord, sd.cell_centers_.data() + i * dim);
          for (size_t d = 0; d < dim; ++d) {
            const double lo = geom.CellOrigin(dc.coord, d);
            const double hi = lo + geom.cell_side();
            if (lo < sd.mbr_.min(d)) sd.mbr_.set_min(d, lo);
            if (hi > sd.mbr_.max(d)) sd.mbr_.set_max(d, hi);
          }
          for (uint32_t s = dc.subcell_begin; s < dc.subcell_end; ++s) {
            geom.SubcellCenter(dc.coord, sd.subcells_[s].id,
                               sd.subcell_centers_.data() + s * dim);
          }
        }
        if (opts.quantized) {
          const float* c = sd.subcell_centers_.data();
          for (size_t s = 0; s < sd.subcells_.size(); ++s, c += dim) {
            for (size_t d = 0; d < dim; ++d) {
              const double v = static_cast<double>(c[d]);
              frag_lo[f * dim + d] = std::min(frag_lo[f * dim + d], v);
              frag_hi[f * dim + d] = std::max(frag_hi[f * dim + d], v);
            }
          }
        }
      },
      /*chunk=*/1);

  // Quantization frame for the fixed-point kernels: per-dimension minimum
  // sub-cell center as the base, eps * 2^-16 as the quantum (inv_quantum
  // = 2^16 / eps). Auto-disabled when any dimension's center span does
  // not fit the uint32 lattice with margin — queries then silently use
  // the exact kernels, results unchanged.
  if (opts.quantized && num_subcells_ > 0) {
    double lo[CellCoord::kMaxDim];
    double hi[CellCoord::kMaxDim];
    for (size_t d = 0; d < dim; ++d) {
      lo[d] = std::numeric_limits<double>::infinity();
      hi[d] = -std::numeric_limits<double>::infinity();
      for (size_t f = 0; f < nfrag; ++f) {
        lo[d] = std::min(lo[d], frag_lo[f * dim + d]);
        hi[d] = std::max(hi[d], frag_hi[f * dim + d]);
      }
    }
    const double inv_quantum =
        static_cast<double>(int64_t{1} << kQuantBitsPerEps) / geom.eps();
    bool fits = true;
    for (size_t d = 0; d < dim; ++d) {
      if (!((hi[d] - lo[d]) * inv_quantum < 4.0e9)) fits = false;
    }
    if (fits) {
      quantized_.enabled = true;
      quantized_.inv_quantum = inv_quantum;
      for (size_t d = 0; d < dim; ++d) quantized_.base[d] = lo[d];
    }
  }

  // Lane-major (SoA) sub-cell storage: per-cell padded blocks of
  // dim-major coordinate lanes plus per-slot densities, the layout the
  // vector kernels (core/simd.h) stride over. Padding slots carry +inf
  // centers and zero counts so whole-vector strides are safe; the
  // quantized lanes (when enabled) quantize the same centers against the
  // frame above.
  auto build_lanes = [&](size_t f) {
    SubDictionary& sd = subdicts_[f];
    sd.lane_dim_ = dim;
    sd.lane_begin_.assign(sd.cells_.size() + 1, 0);
    for (size_t i = 0; i < sd.cells_.size(); ++i) {
      const uint32_t n =
          sd.cells_[i].subcell_end - sd.cells_[i].subcell_begin;
      const uint32_t padded =
          (n + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
      sd.lane_begin_[i + 1] = sd.lane_begin_[i] + padded;
    }
    const size_t total = sd.lane_begin_.back();
    sd.lane_centers_.assign(total * dim, kLanePadCenter);
    sd.lane_counts_.assign(total, 0);
    if (quantized_.enabled) {
      sd.lane_qcenters_.assign(total * dim, kLanePadQuant);
    }
    for (size_t i = 0; i < sd.cells_.size(); ++i) {
      const DictCell& dc = sd.cells_[i];
      const uint32_t padded_n = sd.lane_begin_[i + 1] - sd.lane_begin_[i];
      float* block = sd.lane_centers_.data() +
                     static_cast<size_t>(sd.lane_begin_[i]) * dim;
      uint32_t* qblock =
          quantized_.enabled
              ? sd.lane_qcenters_.data() +
                    static_cast<size_t>(sd.lane_begin_[i]) * dim
              : nullptr;
      for (uint32_t s = dc.subcell_begin; s < dc.subcell_end; ++s) {
        const uint32_t slot = s - dc.subcell_begin;
        const float* center = sd.subcell_centers_.data() + s * dim;
        sd.lane_counts_[sd.lane_begin_[i] + slot] = sd.subcells_[s].count;
        for (size_t d = 0; d < dim; ++d) {
          block[d * padded_n + slot] = center[d];
          if (qblock != nullptr) {
            qblock[d * padded_n + slot] = static_cast<uint32_t>(
                std::llround((static_cast<double>(center[d]) -
                              quantized_.base[d]) *
                             quantized_.inv_quantum));
          }
        }
      }
    }
    // Tight occupied-sub-cell MBR per cell: what candidate
    // classification and the per-point box tests measure against
    // instead of the full cell box.
    sd.cell_mbrs_.resize(sd.cells_.size() * 2 * dim);
    for (size_t i = 0; i < sd.cells_.size(); ++i) {
      float* mbr = sd.cell_mbrs_.data() + i * 2 * dim;
      ComputeCellMbr(geom, sd.cells_[i], sd.subcells_, mbr, mbr + dim);
    }
  };
  MaybeParallelFor(pool, nfrag, build_lanes, /*chunk=*/1);

  // Dictionary-global cell index: coordinate -> (sub-dictionary, local
  // cell), the probe target of the lattice-stencil engine and of
  // FindDictCell, plus the per-slot classification/flatten metadata —
  // every pointer the query engines need about a candidate cell, resolved
  // once (after the lane/MBR arrays above, so the pointers are final).
  subdict_ref_base_.assign(nfrag + 1, 0);
  for (size_t f = 0; f < nfrag; ++f) {
    subdict_ref_base_[f + 1] = subdict_ref_base_[f] +
                               static_cast<uint32_t>(subdicts_[f].cells_.size());
  }
  cell_refs_.resize(num_cells_);
  ref_coords_.resize(num_cells_ * dim);
  slot_meta_.resize(num_cells_);
  std::vector<uint64_t> ref_hashes(num_cells_);
  MaybeParallelFor(
      pool, nfrag,
      [&](size_t f) {
        const SubDictionary& sd = subdicts_[f];
        const size_t base = subdict_ref_base_[f];
        for (uint32_t i = 0; i < sd.cells_.size(); ++i) {
          const size_t slot = base + i;
          const DictCell& dc = sd.cells_[i];
          std::copy(dc.coord.data(), dc.coord.data() + dim,
                    ref_coords_.data() + slot * dim);
          ref_hashes[slot] = dc.coord.hash();
          GlobalCellRef& ref = cell_refs_[slot];
          ref.subdict = static_cast<uint32_t>(f);
          ref.local_cell = i;
          ref.cell_id = dc.cell_id;
          ref.total_count = dc.total_count;
          ref.subcell_begin = dc.subcell_begin;
          ref.subcell_end = dc.subcell_end;
          SlotMeta& meta = slot_meta_[slot];
          meta.lane_centers = sd.lane_centers(i);
          meta.lane_counts = sd.lane_counts(i);
          meta.lane_qcenters = sd.lane_qcenters(i);
          meta.mbr = sd.cell_mbr(i);
          meta.lane_padded = sd.lane_padded(i);
          meta.total_count = dc.total_count;
          meta.cell_id = dc.cell_id;
        }
      },
      /*chunk=*/1);
  cell_index_.BuildHashed(ref_hashes.data(), ref_hashes.size(), pool);

  if (opts.build_stencil) {
    // Scaled by stencil_eps_scale so one offset family (and the CSR
    // below) covers every query radius up to scale * eps; 1.0 is the
    // classic single-eps stencil. Family members are nested prefixes, so
    // smaller radii reuse the CSR through the class filter in
    // QueryCellStencilImpl.
    stencil_ = LatticeStencil::CreateScaled(dim, opts.stencil_eps_scale,
                                            opts.max_stencil_offsets);
  }
  if (stencil_.enabled() && num_cells_ > 0) BuildStencilNeighborhoods(pool);

  // Candidate trees (Lemma 5.6) serve only the tree engine: built here
  // when there is no stencil to query instead, else on first use.
  trees_once_ = std::make_unique<std::once_flag>();
  if (!stencil_.enabled()) {
    std::call_once(*trees_once_, [this, pool] { BuildTrees(pool); });
  }
  queryable_ = true;
}

void CellDictionary::BuildTrees(ThreadPool* pool) const {
  const size_t dim = geom_.dim();
  trees_.resize(subdicts_.size());
  MaybeParallelFor(
      pool, subdicts_.size(),
      [&](size_t f) {
        const SubDictionary& sd = subdicts_[f];
        CandidateTree& tree = trees_[f];
        const size_t ncells = sd.cells_.size();
        if (index_ == CandidateIndex::kRTree) {
          tree.rtree.Build(sd.cell_centers_.data(), ncells, dim);
          return;
        }
        std::vector<uint32_t> density(ncells);
        for (size_t i = 0; i < ncells; ++i) {
          density[i] = sd.cells_[i].total_count;
        }
        tree.box.Build(sd.cell_mbrs_.data(), density.data(), ncells, dim);
        tree.cell_ids.resize(ncells);
        for (size_t k = 0; k < ncells; ++k) {
          tree.cell_ids[k] = sd.cells_[tree.box.perm()[k]].cell_id;
        }
      },
      /*chunk=*/1);
}

void CellDictionary::BuildStencilNeighborhoods(ThreadPool* pool) {
  // Which dictionary cells occupy a source cell's stencil window depends
  // only on the lattice, never on a query, so the window is resolved once
  // here instead of once per region query.
  //
  // Pencil sweep: cells sorted by lattice coordinate fall into pencils,
  // runs that share every coordinate but the last. Stencil membership
  // m(o) grows with |o_last|, so for each distinct offset prefix p the
  // offsets (p, o_last) are exactly those with |o_last| <= reach(p): the
  // window of a cell c inside the target pencil prefix(c) + p is the
  // contiguous run of last coordinates within c_last +- reach(p). One hash
  // probe finds the target pencil for a whole source pencil, and two
  // pointers sweep both pencils in order. Every cell's list is written by
  // the task that owns its pencil — count pass, prefix sum, fill pass —
  // so there is no scatter and the CSR is identical at any thread count.
  const size_t dim = geom_.dim();
  const size_t n = num_cells_;
  const size_t pdim = dim - 1;  // pencil prefix length

  struct Group {
    int32_t prefix[CellCoord::kMaxDim] = {};
    int64_t reach = 0;
    bool is_self = false;  // all-zero prefix: the source's own pencil
  };
  std::vector<Group> groups;
  {
    // Offsets in lexicographic prefix order; each run of one prefix is a
    // group, reaching as far as its largest |o_last|.
    std::vector<uint32_t> by_prefix(stencil_.num_offsets());
    std::iota(by_prefix.begin(), by_prefix.end(), 0u);
    const LatticeStencil& st = stencil_;
    auto prefix_less = [&st, pdim](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(st.offset(a), st.offset(a) + pdim,
                                          st.offset(b), st.offset(b) + pdim);
    };
    std::sort(by_prefix.begin(), by_prefix.end(), prefix_less);
    for (size_t i = 0; i < by_prefix.size(); ++i) {
      const int32_t* off = st.offset(by_prefix[i]);
      if (i == 0 || prefix_less(by_prefix[i - 1], by_prefix[i])) {
        Group g;
        std::copy(off, off + pdim, g.prefix);
        g.is_self = std::all_of(off, off + pdim,
                                [](int32_t v) { return v == 0; });
        groups.push_back(g);
      }
      groups.back().reach =
          std::max(groups.back().reach, std::abs(int64_t{off[pdim]}));
    }
  }

  // Cells in lattice order (dimension 0 most significant): LSD radix sort
  // of the slots on sign-flipped coordinates, last dimension's low byte
  // first.
  std::vector<uint32_t> sorted(n);
  std::vector<uint32_t> scratch;
  MaybeParallelFor(pool, n,
                   [&](size_t s) { sorted[s] = static_cast<uint32_t>(s); });
  const int32_t* rc = ref_coords_.data();
  ParallelRadixSort(
      sorted, scratch, static_cast<unsigned>(4 * dim),
      [rc, dim](uint32_t slot, unsigned b) {
        const size_t d = dim - 1 - b / 4;
        const uint32_t u =
            static_cast<uint32_t>(rc[static_cast<size_t>(slot) * dim + d]) ^
            0x80000000u;
        return static_cast<uint8_t>(u >> (8 * (b % 4)));
      },
      pool);

  // Pencils: starts of runs with a new prefix, numbered by a prefix sum.
  std::vector<int64_t> last(n);
  std::vector<uint32_t> pencil_of(n + 1, 0);
  MaybeParallelFor(pool, n, [&](size_t k) {
    const int32_t* c = rc + static_cast<size_t>(sorted[k]) * dim;
    last[k] = c[pdim];
    pencil_of[k] =
        k == 0 || !std::equal(c, c + pdim,
                              rc + static_cast<size_t>(sorted[k - 1]) * dim)
            ? 1
            : 0;
  });
  const size_t num_pencils = ExclusiveScan(pencil_of.data(), n + 1, pool);
  std::vector<size_t> pencil_begin(num_pencils + 1, n);
  std::vector<int32_t> pencil_prefix(num_pencils * pdim);
  std::vector<uint64_t> pencil_hash(num_pencils);
  MaybeParallelFor(pool, n, [&](size_t k) {
    if (pencil_of[k + 1] == pencil_of[k]) return;  // not a pencil start
    const size_t p = pencil_of[k];
    const int32_t* c = rc + static_cast<size_t>(sorted[k]) * dim;
    pencil_begin[p] = k;
    std::copy(c, c + pdim, pencil_prefix.data() + p * pdim);
    pencil_hash[p] = CellCoordHashOf(c, pdim);
  });
  FlatCellIndex pencil_index;
  pencil_index.BuildHashed(pencil_hash.data(), num_pencils, pool);

  // Calls visit(g, k, lo, hi) for every cell k (sorted position) of
  // pencil `p`, group by group: [lo, hi) is the run of sorted positions of
  // group g's target pencil inside k's window, k itself included for the
  // self group.
  auto sweep = [&](size_t p, auto&& visit) {
    const size_t pb = pencil_begin[p];
    const size_t pe = pencil_begin[p + 1];
    const int32_t* prefix = pencil_prefix.data() + p * pdim;
    for (const Group& g : groups) {
      int32_t target[CellCoord::kMaxDim];
      bool in_range = true;
      for (size_t d = 0; d < pdim; ++d) {
        const int64_t v = int64_t{prefix[d]} + g.prefix[d];
        in_range &= v >= std::numeric_limits<int32_t>::min() &&
                    v <= std::numeric_limits<int32_t>::max();
        target[d] = static_cast<int32_t>(v);
      }
      if (!in_range) continue;
      const int64_t t = pencil_index.FindHashed(
          CellCoordHashOf(target, pdim), target, pdim, pencil_prefix.data());
      if (t < 0) continue;
      const size_t te = pencil_begin[static_cast<size_t>(t) + 1];
      size_t lo = pencil_begin[static_cast<size_t>(t)];
      size_t hi = lo;
      for (size_t k = pb; k < pe; ++k) {
        while (lo < te && last[lo] < last[k] - g.reach) ++lo;
        if (hi < lo) hi = lo;
        while (hi < te && last[hi] <= last[k] + g.reach) ++hi;
        visit(g, k, lo, hi);
      }
    }
  };

  std::vector<size_t> count(n + 1, 1);  // 1 = the self entry
  count[n] = 0;
  MaybeParallelFor(pool, num_pencils, [&](size_t p) {
    sweep(p, [&](const Group& g, size_t k, size_t lo, size_t hi) {
      count[sorted[k]] += hi - lo - (g.is_self ? 1 : 0);
    });
  });
  const size_t total = ExclusiveScan(count.data(), n + 1, pool);
  stencil_nbr_begin_ = std::move(count);
  stencil_nbr_slots_.resize(total);
  std::vector<size_t> cursor(n);
  MaybeParallelFor(pool, num_pencils, [&](size_t p) {
    for (size_t k = pencil_begin[p]; k < pencil_begin[p + 1]; ++k) {
      const size_t begin = stencil_nbr_begin_[sorted[k]];
      stencil_nbr_slots_[begin] = sorted[k];
      cursor[k] = begin + 1;
    }
    sweep(p, [&](const Group&, size_t k, size_t lo, size_t hi) {
      size_t& at = cursor[k];
      for (size_t j = lo; j < hi; ++j) {
        if (j != k) stencil_nbr_slots_[at++] = sorted[j];
      }
    });
  });
}

DictCellRef CellDictionary::FindDictCell(const CellCoord& coord) const {
  const int64_t i = cell_index_.FindHashed(coord.hash(), coord.data(),
                                           coord.dim(), ref_coords_.data());
  if (i < 0) return DictCellRef{};
  const GlobalCellRef& ref = cell_refs_[static_cast<size_t>(i)];
  const SubDictionary* sd = &subdicts_[ref.subdict];
  return DictCellRef{sd, &sd->cells_[ref.local_cell]};
}

namespace {

// Squared distance between a sub-dictionary MBR and the source cell's
// point MBR: the box-to-box generalization of Mbr::MinDist2, used so one
// skipping test (Lemma 5.10) covers every point of the source cell.
double MbrPairMinDist2(const Mbr& mbr, const float* a_lo, const float* a_hi,
                       size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    double gap = 0.0;
    if (mbr.min(d) > a_hi[d]) {
      gap = mbr.min(d) - a_hi[d];
    } else if (a_lo[d] > mbr.max(d)) {
      gap = a_lo[d] - mbr.max(d);
    }
    acc += gap * gap;
  }
  return acc;
}

}  // namespace

size_t CellDictionary::QueryCell(const CellCoord& cell, const float* mbr_lo,
                                 const float* mbr_hi,
                                 CandidateCellList* out,
                                 const QueryEpsSpec& spec) const {
  RPDBSCAN_CHECK(queryable_) << "query on a wire-only dictionary";
  EnsureTrees();
  out->Clear();
  const size_t dim = geom_.dim();
  const double eps = geom_.eps();
  const double qeps = spec.query_eps > 0.0 ? spec.query_eps : eps;
  const double eps2 = qeps * qeps;
  const double disjoint2 = eps2 * kDisjointMargin;
  const double contained2 = eps2 * kContainMargin;
  // The source cell counts toward always_count but is no neighbor of
  // itself; a coordinate outside the dictionary has nothing to exclude.
  const int64_t src_slot = FindCellRefIndex(cell);
  const bool has_src = src_slot >= 0;
  const GlobalCellRef src =
      has_src ? cell_refs_[static_cast<size_t>(src_slot)] : GlobalCellRef{};

  // Per-cell classification, shared by the undecided box-tree leaves and
  // the R-tree hits: the source cell's point MBR against the candidate's
  // occupied-sub-cell MBR. The bounds hold for every pair of one source
  // point and one sub-cell center, so max2 <= eps^2 means the cell's whole
  // density counts for every point (what the kernel would find) and
  // min2 > eps^2 means it never counts (the kernel would find zero).
  auto classify_cell = [&](uint32_t slot) {
    const SlotMeta& sm = slot_meta_[slot];
    double pair_min2 = 0.0;
    double pair_max2 = 0.0;
    MbrPairDistBounds(mbr_lo, mbr_hi, sm.mbr, sm.mbr + dim, dim, &pair_min2,
                      &pair_max2);
    if (pair_min2 > disjoint2) return;  // unreachable from any point
    if (pair_max2 <= contained2) {
      // Every point of the source cell swallows this cell whole: hoist
      // the Example 5.5 containment fast path to cell level.
      out->always_count += sm.total_count;
      if (!has_src || sm.cell_id != src.cell_id) {
        out->always_neighbors.push_back(sm.cell_id);
      }
      return;
    }
    out->maybe_refs.push_back(
        CandidateCellList::MaybeRef{pair_min2, sm.cell_id, slot});
  };

  // R-tree only: per-point queries reach cells whose center is within
  // query_eps + 0.5*eps of the point (Query's candidate radius); every
  // point lies within the MBR's half-diagonal of the MBR center, so one
  // traversal at that radius plus the half-diagonal covers them all. The
  // margin keeps the cover robust to rounding.
  float center[CellCoord::kMaxDim];
  double candidate_radius = 0.0;
  if (index_ == CandidateIndex::kRTree) {
    double half_diag2 = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      center[d] = 0.5f * (mbr_lo[d] + mbr_hi[d]);
      // Bound |p[d] - center[d]| from the rounded center actually queried,
      // so float rounding of the midpoint cannot shrink the cover.
      const double c = center[d];
      const double half = std::max(c - static_cast<double>(mbr_lo[d]),
                                   static_cast<double>(mbr_hi[d]) - c);
      half_diag2 += half * half;
    }
    const double reach = qeps == eps ? 1.5 * eps : qeps + 0.5 * eps;
    candidate_radius = (reach + std::sqrt(half_diag2)) * kDisjointMargin;
  }

  size_t visited = 0;
  for (size_t sdi = 0; sdi < subdicts_.size(); ++sdi) {
    const SubDictionary& sd = subdicts_[sdi];
    if (enable_skipping_ &&
        MbrPairMinDist2(sd.mbr_, mbr_lo, mbr_hi, dim) > disjoint2) {
      continue;
    }
    ++visited;
    const uint32_t base = subdict_ref_base_[sdi];
    const CandidateTree& tree = trees_[sdi];
    if (index_ == CandidateIndex::kRTree) {
      out->tree_hits.clear();
      tree.rtree.CollectInRadius(center, candidate_radius, &out->tree_hits);
      for (const uint32_t local_cell : out->tree_hits) {
        classify_cell(base + local_cell);
      }
      continue;
    }
    const bool src_here = has_src && src.subdict == sdi;
    tree.box.Walk(
        [&](const float* lo, const float* hi) {
          double min2 = 0.0;
          double max2 = 0.0;
          MbrPairDistBounds(mbr_lo, mbr_hi, lo, hi, dim, &min2, &max2);
          if (min2 > disjoint2) return BoxVerdict::kDisjoint;
          if (max2 <= contained2) return BoxVerdict::kContained;
          return BoxVerdict::kPartial;
        },
        [&](size_t begin, size_t end, uint64_t density) {
          // A whole subtree inside every query ball: its summed density
          // and its run of cell ids in one step.
          out->always_count += density;
          std::vector<uint32_t>& ids = out->always_neighbors;
          const size_t first = ids.size();
          ids.insert(ids.end(), tree.cell_ids.begin() + begin,
                     tree.cell_ids.begin() + end);
          if (src_here) {
            const auto it =
                std::find(ids.begin() + first, ids.end(), src.cell_id);
            if (it != ids.end()) ids.erase(it);
          }
        },
        [&](uint32_t local_cell) { classify_cell(base + local_cell); });
  }

  SortAndFlattenMaybes(out);
  return visited;
}

size_t CellDictionary::QueryCellStencil(const CellCoord& cell,
                                        const float* mbr_lo,
                                        const float* mbr_hi,
                                        CandidateCellList* out,
                                        const QueryEpsSpec& spec) const {
  // Dimension dispatch: each instantiation unrolls the per-dimension
  // staging/hashing loops (same trick as the Phase II scan kernel). The
  // covered cases mirror the dimensions the synthetic generators and
  // benchmarks exercise; anything else takes the runtime-dim fallback.
  switch (geom_.dim()) {
    case 2:
      return QueryCellStencilImpl<2>(cell, mbr_lo, mbr_hi, out, spec);
    case 3:
      return QueryCellStencilImpl<3>(cell, mbr_lo, mbr_hi, out, spec);
    case 4:
      return QueryCellStencilImpl<4>(cell, mbr_lo, mbr_hi, out, spec);
    case 5:
      return QueryCellStencilImpl<5>(cell, mbr_lo, mbr_hi, out, spec);
    default:
      return QueryCellStencilImpl<0>(cell, mbr_lo, mbr_hi, out, spec);
  }
}

template <size_t kDim>
size_t CellDictionary::QueryCellStencilImpl(const CellCoord& cell,
                                            const float* mbr_lo,
                                            const float* mbr_hi,
                                            CandidateCellList* out,
                                            const QueryEpsSpec& spec) const {
  RPDBSCAN_CHECK(queryable_ && stencil_.enabled());
  out->Clear();
  const size_t dim = kDim ? kDim : geom_.dim();
  const double side = geom_.cell_side();
  const double eps = geom_.eps();
  const double qeps = spec.query_eps > 0.0 ? spec.query_eps : eps;
  const double eps2 = qeps * qeps;
  const double disjoint2 = eps2 * kDisjointMargin;
  const double contained2 = eps2 * kContainMargin;
  // Class budget of the query radius in cell_side^2 units — the exact
  // formula stencil family members are enumerated with, so the CSR class
  // filter below and a fresh enumeration of the level's own stencil
  // apply the identical integer criterion (the bit-identity the prefix
  // reuse test pins).
  const double budget_q = LatticeStencil::ScaledBudget(dim, qeps / eps);

  // Fast path — the source cell is a dictionary cell (always true in the
  // pipeline), so its stencil window was resolved once at BuildIndex into
  // the precomputed neighborhood list: a linear walk over the present
  // cells' global slots, classifying each from the per-slot metadata with
  // the same MbrPairDistBounds arithmetic and margins as the tree engine.
  // No hash probes, no coordinate staging, no per-offset arithmetic.
  // Present cells the probing path's box-level pre-drop would have
  // skipped are classified here instead and dropped by the (tighter)
  // MBR-level lower bound, so the surviving candidate sequence is
  // identical either way.
  const int64_t src_slot =
      spec.force_probe ? -1 : FindCellRefIndex(cell);
  if (src_slot >= 0 && budget_q <= stencil_.budget()) {
    const size_t begin = stencil_nbr_begin_[static_cast<size_t>(src_slot)];
    const size_t count =
        stencil_nbr_begin_[static_cast<size_t>(src_slot) + 1] - begin;
    const uint32_t* nbr = stencil_nbr_slots_.data() + begin;
    // A query radius below the assembled scale selects the nested family
    // member: keep exactly the neighbors whose integer distance class
    // fits the level budget, recomputed from the stored lattice
    // coordinates. At the full budget every stored neighbor qualifies by
    // construction, so the filter vanishes and the classic path runs
    // untouched.
    const bool class_filter = budget_q < stencil_.budget();
    const int32_t* src_coords =
        ref_coords_.data() + static_cast<size_t>(src_slot) * dim;
    constexpr size_t kMetaPrefetchAhead = 8;
    for (size_t j = 0; j < count; ++j) {
      if (j + kMetaPrefetchAhead < count) {
        __builtin_prefetch(&slot_meta_[nbr[j + kMetaPrefetchAhead]]);
      }
      if (class_filter && j != 0) {
        const int32_t* nc =
            ref_coords_.data() + static_cast<size_t>(nbr[j]) * dim;
        uint64_t m = 0;
        for (size_t d = 0; d < dim; ++d) {
          const int64_t delta =
              static_cast<int64_t>(nc[d]) - static_cast<int64_t>(src_coords[d]);
          const int64_t a = delta < 0 ? -delta : delta;
          if (a > 1) m += static_cast<uint64_t>((a - 1) * (a - 1));
        }
        if (static_cast<double>(m) > budget_q) continue;
      }
      const SlotMeta& sm = slot_meta_[nbr[j]];
      double pair_min2 = 0.0;
      double pair_max2 = 0.0;
      MbrPairDistBounds(mbr_lo, mbr_hi, sm.mbr, sm.mbr + dim, dim,
                        &pair_min2, &pair_max2);
      if (pair_min2 > disjoint2) continue;  // unreachable from any point
      if (pair_max2 <= contained2) {
        out->always_count += sm.total_count;
        // j == 0 is the source cell itself (the list stores it first;
        // stencil offsets are non-zero, so no other entry can equal it).
        if (j != 0) out->always_neighbors.push_back(sm.cell_id);
        continue;
      }
      out->maybe_refs.push_back(
          CandidateCellList::MaybeRef{pair_min2, sm.cell_id, nbr[j]});
    }
    SortAndFlattenMaybes(out);
    out->stencil_probes = count;
    out->stencil_hits = count;
    return count;
  }

  // Fallback — a source coordinate outside the dictionary has no
  // precomputed neighborhood (and force_probe selects this engine
  // deliberately, as does a query budget beyond the assembled family):
  // stage and hash-probe the window directly.
  //
  // Stage 1 — arithmetic pre-drop, no memory traffic beyond the stencil
  // itself. A neighbor's full box is a pure function of its integer
  // coordinates (CellOrigin(c, d) is exactly double(c[d]) * side), so a
  // conservative box-level lower bound is computed from the stencil alone
  // and offsets provably disjoint from every query ball (the majority on
  // skewed data where the point MBR hugs a corner of the cell) are
  // dropped before any probe. The full box contains the occupied-sub-cell
  // MBR that final classification measures against, so the box bound
  // never exceeds the MBR bound — the pre-drop keeps a superset of the
  // survivors and cannot diverge from the tree engine. The tree path
  // cannot make this move: it must walk its index to learn which cells
  // exist before it can reject them.
  //
  // Per axis an offset component ranges over [-r, r] with r the chosen
  // stencil's per-axis bound (1 + floor(sqrt(budget))), so each
  // (dimension, component) pair's neighbor coordinate and per-dimension
  // gap^2 term are precomputed once per source cell into small stack
  // tables; staging an offset is then one table lookup and add per
  // dimension.
  // Offsets come from the level's own stencil when supplied (its budget
  // must cover the query radius), else from the assembled family; either
  // way only the PrefixCount(budget_q) prefix is walked, so the offsets
  // enumerated satisfy exactly the class criterion the CSR filter above
  // applies — the two engines stay bit-identical.
  const LatticeStencil& st =
      spec.level_stencil != nullptr && spec.level_stencil->enabled()
          ? *spec.level_stencil
          : stencil_;
  RPDBSCAN_CHECK(st.budget() >= budget_q)
      << "stencil budget " << st.budget()
      << " does not cover query budget " << budget_q;
  const int32_t radius = st.radius();
  const size_t width = static_cast<size_t>(2 * radius + 1);
  int32_t coord_tab[CellCoord::kMaxDim][16];
  double gap2_tab[CellCoord::kMaxDim][16];
  RPDBSCAN_CHECK(width <= 16);
  for (size_t d = 0; d < dim; ++d) {
    for (int32_t v = -radius; v <= radius; ++v) {
      // 64-bit intermediate: a wrapped coordinate could not hold data
      // anyway (CellIndexOf saturates far earlier), but signed overflow
      // must not be UB on the probe path.
      const int32_t c =
          static_cast<int32_t>(static_cast<int64_t>(cell[d]) + v);
      const double lo = static_cast<double>(c) * side;
      const double hi = lo + side;
      const double alo = mbr_lo[d];
      const double ahi = mbr_hi[d];
      double gap = 0.0;
      if (alo > hi) {
        gap = alo - hi;
      } else if (lo > ahi) {
        gap = lo - ahi;
      }
      const size_t slot = static_cast<size_t>(v + radius);
      coord_tab[d][slot] = c;
      gap2_tab[d][slot] = gap * gap;
    }
  }

  // Stage the source cell first (index 0), then surviving offsets in
  // stencil order — matching the previous engine's staging order exactly.
  // Order only affects always_neighbors' transient layout (maybe_refs get
  // sorted), but determinism is easier to audit when it never changes.
  // Scratch is sized for the worst case up front and written through raw
  // pointers: this loop runs once per source cell over thousands of
  // offsets, and push_back growth checks showed up in the Phase II
  // profile.
  const size_t n = st.PrefixCount(budget_q);
  out->staged_hash.resize(n + 1);
  out->staged_coords.resize((n + 1) * dim);
  uint64_t* sh = out->staged_hash.data();
  int32_t* scoords = out->staged_coords.data();
  {
    // Source cell: never droppable — the point MBR lies inside the
    // source box, so its box-level lower bound is 0.
    const size_t slot = static_cast<size_t>(radius);
    for (size_t d = 0; d < dim; ++d) {
      scoords[d] = coord_tab[d][slot];
    }
    sh[0] = cell.hash();
  }
  size_t staged = 1;
  for (size_t i = 0; i < n; ++i) {
    const int32_t* off = st.offset(i);
    // One branchless pass per offset: the bound and the coordinates are
    // computed unconditionally (coords land in the next staging slot and
    // are simply overwritten if the offset drops), then a single
    // data-dependent branch settles survival. An early per-dimension exit
    // on the growing lower bound proves the same verdict, but its
    // unpredictable branches cost more than the few spare table adds.
    // Only survivors pay the hash.
    double mn = 0.0;
    int32_t* coords = scoords + staged * dim;
    for (size_t d = 0; d < dim; ++d) {
      const size_t slot = static_cast<size_t>(off[d] + radius);
      coords[d] = coord_tab[d][slot];
      mn += gap2_tab[d][slot];
    }
    if (mn > disjoint2) continue;  // unreachable from any point: no probe
    sh[staged] = CellCoordHashOf(coords, dim);
    ++staged;
  }

  // Stage 2 — probe the survivors against the global cell index,
  // prefetch-pipelined: the probes are independent single-slot lookups at
  // random table positions, so issuing the prefetch a few iterations
  // ahead overlaps their cache misses. A hit classifies straight from the
  // per-slot metadata (occupied-sub-cell MBR, density, cell id) with the
  // same MbrPairDistBounds arithmetic and margins as the tree engine —
  // identical inputs, identical verdicts, identical sort keys.
  size_t hits = 0;
  const int32_t* rc = ref_coords_.data();
  constexpr size_t kPrefetchAhead = 8;
  const size_t warm = std::min(kPrefetchAhead, staged);
  for (size_t j = 0; j < warm; ++j) {
    cell_index_.PrefetchHashed(sh[j]);
  }
  for (size_t j = 0; j < staged; ++j) {
    if (j + kPrefetchAhead < staged) {
      cell_index_.PrefetchHashed(sh[j + kPrefetchAhead]);
    }
    const int64_t slot =
        cell_index_.FindHashed(sh[j], scoords + j * dim, dim, rc);
    if (slot < 0) continue;
    ++hits;
    const SlotMeta& sm = slot_meta_[static_cast<size_t>(slot)];
    double pair_min2 = 0.0;
    double pair_max2 = 0.0;
    MbrPairDistBounds(mbr_lo, mbr_hi, sm.mbr, sm.mbr + dim, dim,
                      &pair_min2, &pair_max2);
    if (pair_min2 > disjoint2) continue;  // unreachable from any point
    if (pair_max2 <= contained2) {
      out->always_count += sm.total_count;
      // j == 0 is the source cell (stencil offsets are non-zero, so no
      // other staged coordinate can equal it).
      if (j != 0) out->always_neighbors.push_back(sm.cell_id);
      continue;
    }
    out->maybe_refs.push_back(CandidateCellList::MaybeRef{
        pair_min2, sm.cell_id, static_cast<uint32_t>(slot)});
  }

  SortAndFlattenMaybes(out);
  out->stencil_probes = staged;
  out->stencil_hits = hits;
  return staged;
}

void CellDictionary::SortAndFlattenMaybes(CandidateCellList* out) const {
  // Order the maybe group nearest-first (MBR-to-MBR lower bound, cell id
  // as a deterministic tie-break): the source cell and its densest
  // surroundings land at the front, so the per-point pass-1 scan crosses
  // min_pts after the fewest evaluations. Evaluation order cannot change
  // results — the density sum and the matched-cell union are both
  // order-independent.
  std::sort(out->maybe_refs.begin(), out->maybe_refs.end(),
            [](const CandidateCellList::MaybeRef& a,
               const CandidateCellList::MaybeRef& b) {
              if (a.min2 != b.min2) return a.min2 < b.min2;
              return a.cell_id < b.cell_id;
            });

  // Lay out per-candidate metadata in sorted order; sub-cell lanes stay
  // in the sub-dictionaries' contiguous storage, referenced by pointer.
  // Sized up front and written by index — this runs once per maybe-cell
  // per source cell, and the per-element growth checks of push_back were
  // measurable in the Phase II profile. Every field is copied from the
  // per-slot metadata table in one load per candidate; the candidate MBRs
  // additionally land in a dimension-major lane-padded layout so the
  // per-point vector bounds kernel (core/simd.h) strides whole lanes.
  const size_t dim = geom_.dim();
  const size_t m = out->maybe_refs.size();
  const size_t mp =
      (m + kSimdLaneWidth - 1) / kSimdLaneWidth * kSimdLaneWidth;
  out->maybe_stride = mp;
  out->cell_ids.resize(m);
  out->mbr_lo_t.resize(mp * dim);
  out->mbr_hi_t.resize(mp * dim);
  out->total_counts.resize(m);
  out->lane_centers.resize(m);
  out->lane_counts.resize(m);
  out->lane_qcenters.resize(m);
  out->lane_padded.resize(m);
  float* lo_t = out->mbr_lo_t.data();
  float* hi_t = out->mbr_hi_t.data();
  for (size_t i = 0; i < m; ++i) {
    const CandidateCellList::MaybeRef& ref = out->maybe_refs[i];
    const SlotMeta& sm = slot_meta_[ref.slot];
    out->cell_ids[i] = ref.cell_id;
    for (size_t d = 0; d < dim; ++d) {
      lo_t[d * mp + i] = sm.mbr[d];
      hi_t[d * mp + i] = sm.mbr[dim + d];
    }
    out->total_counts[i] = sm.total_count;
    out->lane_centers[i] = sm.lane_centers;
    out->lane_counts[i] = sm.lane_counts;
    out->lane_qcenters[i] = sm.lane_qcenters;
    out->lane_padded[i] = sm.lane_padded;
  }
  // Padding lanes must still be *initialized* floats (the vector bounds
  // kernel computes them and throws the result away): replicate the last
  // candidate, or zeros when there is none.
  for (size_t i = m; i < mp; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      lo_t[d * mp + i] = m > 0 ? lo_t[d * mp + (m - 1)] : 0.0f;
      hi_t[d * mp + i] = m > 0 ? hi_t[d * mp + (m - 1)] : 0.0f;
    }
  }
}

size_t CellDictionary::SizeBitsLemma43() const {
  const size_t d = geom_.dim();
  const size_t h = static_cast<size_t>(geom_.h());
  // 32 bits of density per (sub-)cell, 32d bits of exact position per cell,
  // d(h-1) bits of local position per sub-cell (Eq. 1).
  return 32 * (num_cells_ + num_subcells_) + 32 * d * num_cells_ +
         d * (h - 1) * num_subcells_;
}

std::vector<uint8_t> CellDictionary::Serialize(ThreadPool* pool) const {
  // Layout: header; per cell its d x 32-bit lattice coordinate (the
  // "exact position" term of Eq. 1), dense cell id and sub-cell count;
  // 32-bit densities; the byte length of the position stream; then the
  // sub-cell positions bit-packed at d*(h-1) bits each. Records and
  // densities follow cell order (fragment by fragment), so every record's
  // offset is a function of the counts alone and slices encode in
  // parallel.
  const size_t dim = geom_.dim();
  const unsigned bits_per_subcell =
      static_cast<unsigned>(dim) * geom_.bits_per_dim();
  const size_t packed_bytes = (num_subcells_ * bits_per_subcell + 7) / 8;
  const size_t cell_record = 4 * (dim + 2);
  const size_t cells_at = kHeaderBytes;
  const size_t densities_at = cells_at + num_cells_ * cell_record;
  const size_t packed_at = densities_at + num_subcells_ * 4 + 8;
  std::vector<uint8_t> out(packed_at + packed_bytes);
  uint8_t* cur = out.data();
  cur = StoreU32(cur, kDictMagic);
  cur = StoreU32(cur, kDictVersion);
  cur = StoreU32(cur, static_cast<uint32_t>(dim));
  cur = StoreF64(cur, geom_.eps());
  cur = StoreF64(cur, geom_.rho());
  cur = StoreU64(cur, num_cells_);
  cur = StoreU64(cur, num_subcells_);
  StoreU64(out.data() + packed_at - 8, packed_bytes);

  // First global cell and sub-cell index of every fragment.
  std::vector<size_t> cell_base(subdicts_.size() + 1, 0);
  std::vector<size_t> sub_base(subdicts_.size() + 1, 0);
  for (size_t f = 0; f < subdicts_.size(); ++f) {
    cell_base[f + 1] = cell_base[f] + subdicts_[f].cells_.size();
    sub_base[f + 1] = sub_base[f] + subdicts_[f].subcells_.size();
  }

  MaybeParallelFor(
      pool, (num_cells_ + kRecordSlice - 1) / kRecordSlice,
      [&](size_t c) {
        ForEachPiece(
            cell_base, c * kRecordSlice,
            std::min(num_cells_, (c + 1) * kRecordSlice),
            [&](size_t f, size_t lo, size_t hi) {
              uint8_t* p = out.data() + cells_at +
                           (cell_base[f] + lo) * cell_record;
              for (size_t i = lo; i < hi; ++i) {
                const DictCell& cell = subdicts_[f].cells_[i];
                for (size_t d = 0; d < dim; ++d) {
                  p = StoreU32(p, static_cast<uint32_t>(cell.coord[d]));
                }
                p = StoreU32(p, cell.cell_id);
                p = StoreU32(p, cell.subcell_end - cell.subcell_begin);
              }
            });
      },
      /*chunk=*/1);

  // Densities and positions, sliced over the global sub-cell index.
  // Position slices hold a multiple of 8 sub-cells, so each starts on a
  // byte boundary and owns its bytes outright.
  MaybeParallelFor(
      pool, (num_subcells_ + kPositionSlice - 1) / kPositionSlice,
      [&](size_t c) {
        const size_t begin = c * kPositionSlice;
        const size_t end = std::min(num_subcells_, begin + kPositionSlice);
        BitWriter bits;
        bits.Reserve((end - begin) * bits_per_subcell);
        ForEachPiece(
            sub_base, begin, end, [&](size_t f, size_t lo, size_t hi) {
              const DictSubcell* subs = subdicts_[f].subcells_.data();
              uint8_t* p = out.data() + densities_at + (sub_base[f] + lo) * 4;
              for (size_t s = lo; s < hi; ++s) {
                p = StoreU32(p, subs[s].count);
                if (bits_per_subcell <= 64) {
                  bits.Write(subs[s].id.lo, bits_per_subcell);
                } else {
                  bits.Write(subs[s].id.lo, 64);
                  bits.Write(subs[s].id.hi, bits_per_subcell - 64);
                }
              }
            });
        if (!bits.bytes().empty()) {
          std::memcpy(out.data() + packed_at + begin * bits_per_subcell / 8,
                      bits.bytes().data(), bits.bytes().size());
        }
      },
      /*chunk=*/1);
  return out;
}

StatusOr<CellDictionary> CellDictionary::Deserialize(
    const std::vector<uint8_t>& bytes, const CellDictionaryOptions& opts,
    ThreadPool* pool) {
  ByteReader in(bytes.data(), bytes.size());
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t dim = 0;
  double eps = 0;
  double rho = 0;
  uint64_t num_cells = 0;
  uint64_t num_subcells = 0;
  if (!in.ReadU32(&magic) || magic != kDictMagic) {
    return Status::InvalidArgument("dictionary buffer: bad magic");
  }
  if (!in.ReadU32(&version) || version != kDictVersion) {
    return Status::InvalidArgument("dictionary buffer: unknown version");
  }
  if (!in.ReadU32(&dim) || !in.ReadF64(&eps) || !in.ReadF64(&rho) ||
      !in.ReadU64(&num_cells) || !in.ReadU64(&num_subcells)) {
    return Status::InvalidArgument("dictionary buffer: truncated header");
  }
  auto geom_or = GridGeometry::Create(dim, eps, rho);
  if (!geom_or.ok()) {
    return Status::InvalidArgument("dictionary buffer: invalid geometry (" +
                                   geom_or.status().message() + ")");
  }
  const GridGeometry& geom = *geom_or;

  // Guard against absurd counts before allocating (overflow-safe). Past
  // this check every cell record lies inside the buffer.
  const size_t cell_record = 4 * (dim + 2);
  if (num_cells > in.Remaining() / cell_record) {
    return Status::InvalidArgument("dictionary buffer: truncated cells");
  }
  if (num_subcells > in.Remaining() / 4) {
    return Status::InvalidArgument("dictionary buffer: truncated sub-cells");
  }
  const size_t n = static_cast<size_t>(num_cells);
  const uint8_t* records = in.Cursor();
  in.Skip(n * cell_record);

  // Cell records, decoded in parallel slices. Each failure below is then
  // located as the first failing record in wire order — the record a
  // sequential decoder would have stopped at — so the Status does not
  // depend on the thread count.
  std::vector<CellCoord> coords(n);
  std::vector<uint32_t> ids(n);
  std::vector<uint64_t> sub_offset(n + 1, 0);
  MaybeParallelFor(
      pool, (n + kRecordSlice - 1) / kRecordSlice,
      [&](size_t c) {
        const size_t end = std::min(n, (c + 1) * kRecordSlice);
        for (size_t i = c * kRecordSlice; i < end; ++i) {
          const uint8_t* p = records + i * cell_record;
          int32_t cc[CellCoord::kMaxDim];
          for (uint32_t d = 0; d < dim; ++d) {
            cc[d] = static_cast<int32_t>(LoadU32(p + 4 * d));
          }
          coords[i] = CellCoord(cc, dim);
          ids[i] = LoadU32(p + 4 * dim);
          sub_offset[i] = LoadU32(p + 4 * dim + 4);
        }
      },
      /*chunk=*/1);
  const size_t first_empty = static_cast<size_t>(
      std::find(sub_offset.begin(), sub_offset.begin() + n, 0) -
      sub_offset.begin());
  const uint64_t declared_subcells =
      ExclusiveScan(sub_offset.data(), n + 1, pool);
  // The running sub-cell total after cell i is sub_offset[i + 1]; it only
  // grows, so the first cell to push it past the header's total is found
  // by binary search. An empty cell adds nothing, so it can never be that
  // cell itself: the two failures cannot tie.
  const size_t first_overflow = static_cast<size_t>(
      std::upper_bound(sub_offset.begin() + 1, sub_offset.end(),
                       num_subcells) -
      (sub_offset.begin() + 1));
  if (first_empty < n && first_empty < first_overflow) {
    return Status::InvalidArgument(
        "dictionary buffer: cell with zero sub-cells");
  }
  if (first_overflow < n) {
    // Bounds the allocation below: a corrupted per-cell count must not
    // drive it beyond the (already remaining-bytes-checked) total.
    return Status::InvalidArgument(
        "dictionary buffer: sub-cell count overflow");
  }
  if (declared_subcells != num_subcells) {
    return Status::InvalidArgument(
        "dictionary buffer: sub-cell count mismatch");
  }

  // Densities: the first zero among the densities present wins over a
  // truncation, exactly as a sequential read would meet them.
  const size_t m = static_cast<size_t>(num_subcells);
  const size_t present = std::min(m, in.Remaining() / 4);
  const uint8_t* densities = in.Cursor();
  std::vector<DictSubcell> subcells(m);
  MaybeParallelFor(
      pool, (present + kRecordSlice - 1) / kRecordSlice,
      [&](size_t c) {
        const size_t end = std::min(present, (c + 1) * kRecordSlice);
        for (size_t s = c * kRecordSlice; s < end; ++s) {
          subcells[s].count = LoadU32(densities + 4 * s);
        }
      },
      /*chunk=*/1);
  if (std::any_of(subcells.begin(), subcells.begin() + present,
                  [](const DictSubcell& s) { return s.count == 0; })) {
    return Status::InvalidArgument("dictionary buffer: zero-density sub-cell");
  }
  if (present < m) {
    return Status::InvalidArgument("dictionary buffer: truncated densities");
  }
  in.Skip(m * 4);

  // Positions, decoded by the same byte-aligned slicing Serialize writes.
  uint64_t packed_size = 0;
  if (!in.ReadU64(&packed_size) || packed_size > in.Remaining()) {
    return Status::InvalidArgument(
        "dictionary buffer: truncated position stream");
  }
  const unsigned bits_per_subcell =
      static_cast<unsigned>(dim) * geom.bits_per_dim();
  if (packed_size * 8 < num_subcells * bits_per_subcell) {
    return Status::InvalidArgument(
        "dictionary buffer: position stream too short");
  }
  const uint8_t* packed = in.Cursor();
  MaybeParallelFor(
      pool, (m + kPositionSlice - 1) / kPositionSlice,
      [&](size_t c) {
        const size_t begin = c * kPositionSlice;
        const size_t end = std::min(m, begin + kPositionSlice);
        const size_t offset = begin * bits_per_subcell / 8;
        BitReader bits(packed + offset, packed_size - offset);
        for (size_t s = begin; s < end; ++s) {
          SubcellId& id = subcells[s].id;
          if (bits_per_subcell <= 64) {
            id.lo = bits.Read(bits_per_subcell);
          } else {
            id.lo = bits.Read(64);
            id.hi = bits.Read(bits_per_subcell - 64);
          }
        }
      },
      /*chunk=*/1);

  auto dict_or = Layout(
      geom, n,
      [&](size_t i) {
        return EntryRef{&coords[i], ids[i],
                        subcells.data() + sub_offset[i],
                        static_cast<size_t>(sub_offset[i + 1] -
                                            sub_offset[i])};
      },
      opts, pool);
  if (!dict_or.ok()) return dict_or;
  // The fragments hold copies now: release the decoded arrays before the
  // index build allocates its own.
  std::vector<CellCoord>().swap(coords);
  std::vector<DictSubcell>().swap(subcells);
  dict_or->BuildIndex(opts, pool);
  return dict_or;
}

}  // namespace rpdbscan
