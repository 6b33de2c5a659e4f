#ifndef RPDBSCAN_CORE_CELL_DICTIONARY_H_
#define RPDBSCAN_CORE_CELL_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cell_coord.h"
#include "core/cell_set.h"
#include "core/flat_cell_index.h"
#include "core/grid.h"
#include "core/lattice_stencil.h"
#include "core/simd.h"
#include "io/dataset.h"
#include "parallel/thread_pool.h"
#include "spatial/box_tree.h"
#include "spatial/mbr.h"
#include "spatial/rtree.h"
#include "util/logging.h"
#include "util/status.h"

namespace rpdbscan {

/// One sub-cell entry of the dictionary: packed local position plus the
/// number of points inside (the "density", Sec. 4.2.1).
struct DictSubcell {
  SubcellId id;
  uint32_t count = 0;
};

/// One root-node entry of the dictionary: a cell, its total density, and
/// the contiguous range of its sub-cells in the owning sub-dictionary.
struct DictCell {
  CellCoord coord;
  uint32_t cell_id = 0;       // dense id shared with CellSet / cell graph
  uint32_t total_count = 0;
  uint32_t subcell_begin = 0;
  uint32_t subcell_end = 0;
};

/// A defragmented fragment of the two-level cell dictionary (Def. 4.4):
/// a subset of cells, their sub-cells, and an MBR for skipping
/// (Lemma 5.10). Its candidate tree (Lemma 5.6) is held by the owning
/// CellDictionary, which builds it only for the tree engine.
class SubDictionary {
 public:
  const Mbr& mbr() const { return mbr_; }
  size_t num_cells() const { return cells_.size(); }
  size_t num_subcells() const { return subcells_.size(); }
  const std::vector<DictCell>& cells() const { return cells_; }
  const std::vector<DictSubcell>& subcells() const { return subcells_; }
  /// Precomputed center arrays (see the private members below): read-only
  /// views for the auditors, which recompute both from the geometry and
  /// compare bit-exactly. No copies — these arrays scale with the data.
  const std::vector<float>& subcell_centers() const {
    return subcell_centers_;
  }
  const std::vector<float>& cell_centers() const { return cell_centers_; }

  // --- Lane-major (SoA) sub-cell storage for the vector kernels
  // --- (core/simd.h). Each cell owns a padded block of kSimdLaneWidth-
  // --- aligned slots: coordinate d's lane is lane_centers(c) +
  // --- d * lane_padded(c), densities sit in lane_counts(c). Padding
  // --- slots hold +inf centers / zero counts so kernels run whole
  // --- vector strides. Built in BuildIndex alongside the AoS centers
  // --- (which the auditors and the per-point reference path keep). ---

  /// Padded slot count of a cell's lane block (multiple of
  /// kSimdLaneWidth, >= its sub-cell count).
  uint32_t lane_padded(uint32_t local_cell) const {
    return lane_begin_[local_cell + 1] - lane_begin_[local_cell];
  }
  /// The cell's coordinate lanes: lane_dim() runs of lane_padded() floats.
  const float* lane_centers(uint32_t local_cell) const {
    return lane_centers_.data() +
           static_cast<size_t>(lane_begin_[local_cell]) * lane_dim_;
  }
  /// The cell's per-slot densities (0 in padding slots).
  const uint32_t* lane_counts(uint32_t local_cell) const {
    return lane_counts_.data() + lane_begin_[local_cell];
  }
  /// Quantized coordinate lanes (same layout as lane_centers); null when
  /// the dictionary was built without quantized mode.
  const uint32_t* lane_qcenters(uint32_t local_cell) const {
    return lane_qcenters_.empty()
               ? nullptr
               : lane_qcenters_.data() +
                     static_cast<size_t>(lane_begin_[local_cell]) * lane_dim_;
  }
  size_t lane_dim() const { return lane_dim_; }

  /// Tight per-cell bounds: the MBR of the cell's *occupied* sub-cell
  /// boxes (2 * dim floats: lo then hi), decoded from the packed sub-cell
  /// ids at BuildIndex with one float ulp outward per face — the same
  /// arithmetic SubcellRangeMbr (core/phase2.h) used to recompute per
  /// query. Candidate classification tests against this instead of the
  /// full cell box: on sparse cells it is much smaller, so more
  /// candidates resolve as provably-contained or provably-disjoint at
  /// cell level, and the per-point box tests reject earlier. Soundness is
  /// unchanged — every occupied sub-cell box (hence every sub-cell
  /// center, hence every point) lies inside it.
  const float* cell_mbr(uint32_t local_cell) const {
    return cell_mbrs_.data() + static_cast<size_t>(local_cell) * 2 * lane_dim_;
  }

 private:
  friend class CellDictionary;

  std::vector<DictCell> cells_;
  std::vector<DictSubcell> subcells_;
  /// Precomputed sub-cell centers (num_subcells * dim floats) so queries
  /// compare distances without re-decoding packed positions.
  std::vector<float> subcell_centers_;
  /// Cell centers (num_cells * dim floats), indexed by the R-tree.
  std::vector<float> cell_centers_;
  /// Lane-major sub-cell storage (see the accessors above): per-cell
  /// padded slot offsets (num_cells + 1 entries, slot units), the
  /// dim-major center lanes, per-slot densities, and optionally the
  /// uint32 quantized center lanes.
  std::vector<uint32_t> lane_begin_;
  std::vector<float> lane_centers_;
  std::vector<uint32_t> lane_counts_;
  std::vector<uint32_t> lane_qcenters_;
  /// Occupied-sub-cell MBR per cell, 2 * dim floats (see cell_mbr()).
  std::vector<float> cell_mbrs_;
  size_t lane_dim_ = 0;
  Mbr mbr_{0};
};

/// One entry of the dictionary-global cell index: where a cell's DictCell
/// landed after defragmentation, keyed by the precomputed CellCoord hash
/// through FlatCellIndex. The dense cell id, total density, and sub-cell
/// range are duplicated here from the DictCell so a stencil probe hit
/// classifies, records, and later flattens the candidate from this one
/// entry — the query path never issues a dependent load into the
/// sub-dictionary's cell array. Lattice coordinates live in a separate
/// flat array (CellDictionary::ref_coords_) so this stays a 24-byte
/// struct: a probe hit's classification reads touch a single cache line.
struct GlobalCellRef {
  uint32_t subdict = 0;
  uint32_t local_cell = 0;
  uint32_t cell_id = 0;
  uint32_t total_count = 0;
  uint32_t subcell_begin = 0;
  uint32_t subcell_end = 0;
};

/// Resolution of a lattice coordinate through the global cell index.
struct DictCellRef {
  const SubDictionary* subdict = nullptr;
  const DictCell* cell = nullptr;
  explicit operator bool() const { return cell != nullptr; }
};

/// Which spatial index finds candidate cells inside a sub-dictionary.
/// Lemma 5.6 allows either ("R*-tree or kd-tree"); both give identical
/// query results. kKdTree is a kd-tree over the cells' occupied-sub-cell
/// MBRs that classifies whole subtrees (spatial/box_tree.h); kRTree is an
/// R-tree over cell centers searched by radius.
enum class CandidateIndex : uint8_t {
  kKdTree = 0,
  kRTree = 1,
};

/// Build/query options. The ablation benchmarks flip the booleans.
struct CellDictionaryOptions {
  /// Cells per sub-dictionary before BSP splits further (stands in for the
  /// paper's "available main memory" bound, Sec. 4.2.2).
  size_t max_cells_per_subdict = 2048;
  /// Apply BSP defragmentation; false keeps one monolithic sub-dictionary.
  bool defragment = true;
  /// Apply MBR-based sub-dictionary skipping during queries (Lemma 5.10).
  bool enable_skipping = true;
  /// Candidate-cell index (Lemma 5.6).
  CandidateIndex index = CandidateIndex::kKdTree;
  /// Build the lattice-stencil candidate engine: the precomputed eps-ball
  /// offset set served by QueryCellStencil. Costs one
  /// LatticeStencil::Create per dictionary (microseconds); the global cell
  /// index it probes is built regardless.
  bool build_stencil = true;
  /// Stencil size cap, the high-dimensionality fallback threshold: when
  /// the eps-ball offset set would exceed this many offsets the stencil
  /// stays disabled and Phase II falls back to tree traversal. The default
  /// covers d <= 5 (the d = 5 stencil holds 6094 offsets; d = 6 would need
  /// 41220).
  size_t max_stencil_offsets = 8192;
  /// Query-radius headroom of the stencil: the assembled offset family
  /// (and its precomputed neighborhood CSR) covers query radii up to
  /// stencil_eps_scale * eps instead of exactly eps. Queries at smaller
  /// radii reuse the CSR through an integer class filter (the family
  /// members are nested prefixes, LatticeStencil::CreateScaled); 1.0
  /// keeps the classic single-eps stencil bit-for-bit. The multi-eps
  /// ladder (src/hierarchy/) builds one dictionary at its largest
  /// level's scale and runs every level against it.
  double stencil_eps_scale = 1.0;
  /// Also build the uint32 quantized coordinate lanes (core/simd.h): the
  /// fixed-point fast path for the sub-cell kernels. Auto-disabled (see
  /// CellDictionary::has_quantized) when the coordinate span per dimension
  /// exceeds the uint32 lattice at eps * 2^-16 quanta.
  bool quantized = false;
};

/// Decouples the region-query radius from the grid geometry: the ladder
/// sweep (src/hierarchy/) runs many query radii over one dictionary whose
/// cells stay eps-diagonal. Defaults reproduce the classic single-eps
/// behavior bit-for-bit.
struct QueryEpsSpec {
  /// Region-query radius; 0 (or exactly the geometry eps) keeps the
  /// classic behavior. Must be >= the geometry eps (the cell-diagonal
  /// core-cell lemma needs the diagonal within the query radius) and
  /// within the radius the dictionary's stencil was scaled for
  /// (CellDictionaryOptions::stencil_eps_scale) unless a covering
  /// `level_stencil` is supplied.
  double query_eps = 0.0;
  /// Offset family member covering this query radius, used only by the
  /// stencil engine's hashed-probe fallback (source coordinate absent
  /// from the dictionary, or force_probe). May exceed the query radius;
  /// the probe loop restricts itself to the PrefixCount(budget) prefix
  /// either way. Null falls back to the dictionary's own stencil.
  const LatticeStencil* level_stencil = nullptr;
  /// Bypass the precomputed neighborhood CSR and enumerate candidates by
  /// staged hash probes — the reference engine the CSR-prefix reuse is
  /// tested bit-identical against.
  bool force_probe = false;
};

/// How much of the dictionary a build materializes. A broadcast sender
/// only encodes the dictionary, and Serialize reads nothing but the BSP
/// layout, so it skips every query structure; the receiver builds those
/// from the decoded layout (Deserialize always builds everything).
enum class DictionaryBuild : uint8_t {
  /// The BSP layout plus every query structure: MBRs, centers, SoA lanes,
  /// per-fragment trees, the global cell index and the stencil CSR.
  kQueryable = 0,
  /// The BSP layout alone: the per-fragment cells and sub-cells, which is
  /// all Serialize, the size accessors and SizeBitsLemma43 read. Queries
  /// on such a dictionary abort (see queryable()).
  kWireOnly = 1,
};

/// One cell's raw dictionary content: the unit of dictionary assembly and
/// of the Lemma 4.3 wire format.
struct CellEntry {
  CellCoord coord;
  uint32_t cell_id = 0;
  std::vector<DictSubcell> subcells;
};

/// Flat SoA candidate set produced by CellDictionary::QueryCell for one
/// source cell: everything the (eps, rho)-region queries of *all* points
/// inside that cell can touch, gathered with a single index traversal per
/// sub-dictionary and laid out contiguously so the per-point scan does no
/// hash or tree work. Reuse one instance across the cells of a partition
/// task — Clear() keeps the allocations.
///
/// Candidate cells split into two groups by box-to-box distance bounds
/// (valid for every query point in the source cell):
///  * "always" cells, provably eps-contained for any point of the source
///    cell: pre-summed into `always_count` (the containment fast path of
///    Example 5.5 hoisted from point to cell level);
///  * "maybe" cells, needing the per-point containment / sub-cell distance
///    tests, stored as parallel arrays plus a flattened copy of their
///    sub-cell centers and densities.
/// Cells whose box can never intersect any query ball are dropped at
/// gather time.
struct CandidateCellList {
  /// Summed density of the always-contained cells (source cell included
  /// when its own box fits every query ball).
  uint64_t always_count = 0;
  /// Ids of the always-contained cells, source cell excluded — for a core
  /// point every one of them is a neighbor cell.
  std::vector<uint32_t> always_neighbors;

  // --- "maybe" cells, one entry per cell (SoA), sorted by ascending
  // --- MBR-to-MBR distance to the source cell so per-point scans hit the
  // --- densest/nearest candidates first and exit at min_pts early. ---
  std::vector<uint32_t> cell_ids;
  /// Tight per-candidate bounds for the per-point min/max distance tests:
  /// each candidate's occupied-sub-cell MBR (precomputed at BuildIndex),
  /// laid out dimension-major and padded to maybe_stride so the vector
  /// bounds kernel (core/simd.h PointBoundsFn) strides whole lanes —
  /// dimension d of candidate i sits at mbr_lo_t[d * maybe_stride + i].
  std::vector<float> mbr_lo_t;
  std::vector<float> mbr_hi_t;
  /// num_maybe() rounded up to kSimdLaneWidth: the lane stride of the
  /// transposed MBR arrays above.
  size_t maybe_stride = 0;
  /// Total density per cell (the containment fast-path contribution).
  std::vector<uint32_t> total_counts;
  /// Lane-major sub-cell views of the candidates (SubDictionary lane
  /// accessors): what the vector kernels scan.
  /// lane_qcenters entries are null when the dictionary carries no
  /// quantized lanes.
  std::vector<const float*> lane_centers;
  std::vector<const uint32_t*> lane_counts;
  std::vector<const uint32_t*> lane_qcenters;
  std::vector<uint32_t> lane_padded;

  /// Scratch for the per-sub-dictionary R-tree traversal.
  std::vector<uint32_t> tree_hits;
  /// Scratch for the proximity sort of the maybe group before flattening:
  /// the sort key plus the candidate's global cell-index slot, through
  /// which SortAndFlattenMaybes copies everything the flat SoA needs from
  /// the per-slot metadata table (CellDictionary::slot_meta_) in one
  /// load — no dictionary cell storage, no pointer chasing per field.
  struct MaybeRef {
    double min2 = 0;        // MBR-to-MBR lower bound to the source cell
    uint32_t cell_id = 0;   // deterministic tie-break
    uint32_t slot = 0;      // index into cell_refs() / the slot-meta table
  };
  std::vector<MaybeRef> maybe_refs;

  /// Scratch for the stencil engine's staged probes: offsets that survive
  /// the pure-arithmetic disjointness pre-drop, as parallel arrays of
  /// coordinate hash and raw lattice coordinates (dim int32 per staged
  /// probe, the FindHashed collision confirm). Sized by the stencil, so
  /// the allocations amortize across every cell of a partition task.
  std::vector<uint64_t> staged_hash;
  std::vector<int32_t> staged_coords;

  /// Stencil engine accounting (QueryCellStencil only): lattice hash
  /// probes issued for this cell (offsets surviving the arithmetic
  /// pre-drop, plus the source cell), and probes that found a dictionary
  /// cell.
  size_t stencil_probes = 0;
  size_t stencil_hits = 0;

  size_t num_maybe() const { return cell_ids.size(); }

  void Clear() {
    always_count = 0;
    always_neighbors.clear();
    cell_ids.clear();
    mbr_lo_t.clear();
    mbr_hi_t.clear();
    maybe_stride = 0;
    total_counts.clear();
    lane_centers.clear();
    lane_counts.clear();
    lane_qcenters.clear();
    lane_padded.clear();
    maybe_refs.clear();
    staged_hash.clear();
    staged_coords.clear();
    stencil_probes = 0;
    stencil_hits = 0;
  }
};

/// The two-level cell dictionary (Def. 4.2): the broadcast-compact summary
/// of the *entire* data set that lets each worker answer (eps, rho)-region
/// queries for successors living in other partitions without communication.
///
/// Immutable after Build; queries are const and thread-safe — exactly the
/// broadcast-variable role it plays on Spark in the paper. Move-only: the
/// per-slot metadata and the R-tree point into the dictionary's own
/// arrays, which a move carries along but a copy would leave behind.
class CellDictionary {
 public:
  /// Builds the dictionary over every cell of `cells` (which indexes
  /// `data`). Cell ids in the dictionary are the CellSet ids. Per-cell
  /// sub-cell histograms are computed in parallel on `pool` when given
  /// (the paper builds per-partition dictionaries on the workers before
  /// combining them, Alg. 2 lines 13-20). `what` selects between the full
  /// dictionary and the broadcast sender's layout-only one.
  static StatusOr<CellDictionary> Build(
      const Dataset& data, const CellSet& cells,
      const CellDictionaryOptions& opts = CellDictionaryOptions(),
      ThreadPool* pool = nullptr,
      DictionaryBuild what = DictionaryBuild::kQueryable);

  /// One cell's dictionary entry — the per-cell unit of work inside Build,
  /// exposed so the streaming ingest path can recompute only the touched
  /// cells' entries. A pure function of the cell's point list: the sub-cell
  /// histogram in a deterministic sorted order (sub-cell ids ascending,
  /// high word first).
  static CellEntry MakeCellEntry(const Dataset& data, const GridGeometry& geom,
                                 const CellData& cell, uint32_t cell_id);

  /// Assembles a dictionary from precomputed entries (dense cell-id order;
  /// `entries[i].cell_id == i`). `Build` == MakeCellEntry per cell +
  /// FromEntries, so a dictionary assembled from cached entries is
  /// structurally identical to a from-scratch Build over the same cells.
  /// The entries are only read (each fragment copies what it holds), so
  /// a caller that keeps them, like the streaming epoch cache, passes
  /// them without a copy.
  static StatusOr<CellDictionary> FromEntries(
      const GridGeometry& geom, const std::vector<CellEntry>& entries,
      const CellDictionaryOptions& opts = CellDictionaryOptions(),
      ThreadPool* pool = nullptr,
      DictionaryBuild what = DictionaryBuild::kQueryable);

  const GridGeometry& geom() const { return geom_; }
  size_t num_cells() const { return num_cells_; }
  size_t num_subcells() const { return num_subcells_; }
  size_t num_subdictionaries() const { return subdicts_.size(); }
  const std::vector<SubDictionary>& subdictionaries() const {
    return subdicts_;
  }
  /// False for a DictionaryBuild::kWireOnly dictionary: only its layout
  /// (cells and sub-cells per fragment) exists, and the query methods
  /// abort instead of answering from missing indexes.
  bool queryable() const { return queryable_; }

  /// Dictionary size in bits per Lemma 4.3 / Eq. (1):
  ///   32(|cell| + |subcell|) + 32 d |cell| + d(h-1)|subcell|.
  size_t SizeBitsLemma43() const;

  /// Same, rounded up to bytes (what Table 5 reports as a fraction of the
  /// raw data payload).
  size_t SizeBytesLemma43() const { return (SizeBitsLemma43() + 7) / 8; }

  /// (eps, rho)-region query (Def. 5.1) around `p`: invokes
  /// `visit(const DictCell&, uint32_t matched_count)` once per cell that
  /// has at least one sub-cell whose center lies within eps of `p`, in no
  /// particular order. `matched_count` is the summed density of those
  /// sub-cells; for cells fully contained in the query ball the whole cell
  /// is taken in one step (Example 5.5's containment fast path). `p` must
  /// be finite.
  ///
  /// With the kd-tree index the walk judges whole subtrees of cell boxes
  /// (see QueryCell): a subtree provably inside the ball visits each of
  /// its cells with its full density, one provably outside is skipped,
  /// and the cells of undecided leaves take the per-cell tests. Every
  /// sub-cell center lies in its cell's box, so both subtree verdicts
  /// give exactly what the per-cell tests would.
  ///
  /// Returns the number of sub-dictionaries actually inspected (after
  /// skipping) so callers can account for the Lemma 5.10 savings.
  template <typename Visitor>
  size_t Query(const float* p, Visitor&& visit,
               double query_eps = 0.0) const {
    RPDBSCAN_CHECK(queryable_) << "query on a wire-only dictionary";
    EnsureTrees();
    const size_t dim = geom_.dim();
    const double eps = geom_.eps();
    const double qeps = query_eps > 0.0 ? query_eps : eps;
    const double eps2 = qeps * qeps;
    const double disjoint2 = eps2 * kDisjointMargin;
    const double contained2 = eps2 * kContainMargin;
    // R-tree: any cell with a sub-cell center within the query radius has
    // its own center within query_eps + cell_diagonal/2 (cell diagonal is
    // eps, Def. 3.1) — 1.5 * eps in the classic query_eps == eps case.
    const double candidate_radius =
        qeps == eps ? 1.5 * eps : qeps + 0.5 * eps;
    size_t visited = 0;
    for (size_t f = 0; f < subdicts_.size(); ++f) {
      const SubDictionary& sd = subdicts_[f];
      if (enable_skipping_ && sd.mbr_.MinDist2(p) > eps2) continue;
      ++visited;
      auto per_cell = [&](uint32_t local_cell) {
        const DictCell& cell = sd.cells_[local_cell];
        if (geom_.CellMaxDist2(cell.coord, p) <= eps2) {
          // Fully contained: every sub-cell is an (eps,rho)-neighbor.
          visit(cell, cell.total_count);
          return;
        }
        if (geom_.CellMinDist2(cell.coord, p) > eps2) {
          return;  // cannot intersect
        }
        uint32_t matched = 0;
        for (uint32_t s = cell.subcell_begin; s < cell.subcell_end; ++s) {
          const float* center =
              sd.subcell_centers_.data() + s * geom_.dim();
          if (DistanceSquared(p, center, geom_.dim()) <= eps2) {
            matched += sd.subcells_[s].count;
          }
        }
        if (matched > 0) visit(cell, matched);
      };
      const CandidateTree& tree = trees_[f];
      if (index_ == CandidateIndex::kRTree) {
        tree.rtree.ForEachInRadius(
            p, candidate_radius,
            [&](uint32_t local_cell, double) { per_cell(local_cell); });
        continue;
      }
      const uint32_t* perm = tree.box.perm().data();
      tree.box.Walk(
          [&](const float* lo, const float* hi) {
            double min2 = 0.0;
            double max2 = 0.0;
            MbrPairDistBounds(p, p, lo, hi, dim, &min2, &max2);
            if (min2 > disjoint2) return BoxVerdict::kDisjoint;
            if (max2 <= contained2) return BoxVerdict::kContained;
            return BoxVerdict::kPartial;
          },
          [&](size_t begin, size_t end, uint64_t) {
            for (size_t k = begin; k < end; ++k) {
              const DictCell& cell = sd.cells_[perm[k]];
              visit(cell, cell.total_count);
            }
          },
          per_cell);
    }
    return visited;
  }

  /// Conservative classification margins for the cell-level candidate
  /// split (QueryCell, QueryCellStencil and the subtree verdicts of the
  /// box tree). Box-to-box bounds and the per-point distance tests round
  /// differently at the last ulp; the relative margin (orders of magnitude
  /// above double rounding error, orders below any real geometric gap)
  /// pushes borderline cells into the per-point "maybe" group, whose tests
  /// reproduce Query() arithmetic exactly — so the split can never change
  /// results, only shift work between the hoisted and the per-point path.
  static constexpr double kContainMargin = 1.0 - 1e-9;
  static constexpr double kDisjointMargin = 1.0 + 1e-9;

  /// Batched (eps, rho)-region query for every point of cell `cell` at
  /// once: gathers into `*out` (cleared first) the candidate-cell set that
  /// per-point queries of any point inside the cell could reach, using a
  /// single index traversal per non-skipped sub-dictionary. `mbr_lo` /
  /// `mbr_hi` (dim floats each) bound the cell's *actual* points.
  /// Candidates are classified by MBR-to-MBR bounds against each
  /// candidate's precomputed occupied-sub-cell MBR (tighter than its full
  /// cell box on sparse data): provably contained cells are pre-summed,
  /// provably disjoint cells are dropped, and the rest are referenced for
  /// per-point tests, sorted nearest-first. The classification is
  /// conservative (tiny relative margins push borderline cells into the
  /// per-point group), so scanning `*out` reproduces Query() exactly for
  /// every point inside the MBR: a contained candidate's sub-cell centers
  /// all lie within eps (its whole density counts, as Query would), a
  /// disjoint candidate's never do.
  ///
  /// The kd-tree index is a box tree over the cells' occupied-sub-cell
  /// MBRs (spatial/box_tree.h) whose nodes carry their bounding box and
  /// summed density. The walk applies the same bounds and margins to each
  /// node: a provably disjoint node drops its whole subtree, a provably
  /// contained node adds its density and its cells in one step, and only
  /// the cells of undecided leaves are classified one by one. The bounds
  /// are monotone in the box, so a node verdict is the verdict each of
  /// its cells would get: the output equals classifying every cell of
  /// every non-skipped sub-dictionary on its own. The R-tree index keeps
  /// the centre-radius traversal (radius: the per-point candidate radius
  /// 1.5*eps of Lemma 5.6 plus the MBR's half-diagonal).
  ///
  /// Returns the number of sub-dictionaries inspected after MBR skipping,
  /// here at most one visit per sub-dictionary per *cell* (vs per point
  /// for Query) — the Lemma 5.10 accounting for the batched kernel.
  /// `spec` decouples the query radius from the geometry eps (see
  /// QueryEpsSpec); the default reproduces the classic behavior exactly.
  size_t QueryCell(const CellCoord& cell, const float* mbr_lo,
                   const float* mbr_hi, CandidateCellList* out,
                   const QueryEpsSpec& spec = QueryEpsSpec()) const;

  /// Same contract as QueryCell and bit-identical Phase II results, but
  /// candidates are enumerated over the precomputed eps-ball lattice
  /// stencil instead of per-sub-dictionary tree descent. Every cell any
  /// query point can match has integer lattice distance class m(o) <= d,
  /// so the stencil covers it; hits are classified with QueryCell's
  /// MBR-to-MBR arithmetic and margins verbatim, and the per-point
  /// tests downstream reuse Query()'s exact arithmetic — so results
  /// cannot differ. (The candidate *lists* may differ in
  /// provably-zero-match cells: the tree path's Lemma 5.10 MBR skipping
  /// can drop cells the stencil still classifies, and vice versa the
  /// stencil never sees cells beyond distance class d that the traversal
  /// radius admits. Both prunings are sound, which is all the downstream
  /// scan needs.)
  ///
  /// The engine's unique lever: which dictionary cells occupy a source
  /// cell's stencil window is a pure function of the lattice — not of the
  /// query — so BuildIndex resolves every cell's window once into a CSR
  /// neighborhood list of global index slots. A query is then a linear
  /// walk of that list, classifying each neighbor from its per-slot
  /// metadata (occupied-sub-cell MBR, density, cell id): no tree descent,
  /// no hash probes, no coordinate arithmetic on the hot path. A source
  /// coordinate absent from the dictionary (never the case in the
  /// pipeline, where every queried cell is a dictionary cell) falls back
  /// to staging + hash-probing the window directly.
  ///
  /// Only callable when has_stencil(). out->stencil_probes counts the
  /// neighborhood entries walked (at most num_offsets + 1, including the
  /// source cell itself — a function of the lattice only, independent of
  /// the query MBR and of min_pts); out->stencil_hits counts the entries
  /// that resolved to a dictionary cell (equal to the probe count on the
  /// precomputed path, where only present cells are stored). Returns the
  /// probe count.
  /// With a `spec` below the assembled scale, the precomputed CSR is
  /// reused through an integer class filter (identical inclusion
  /// criterion as a fresh enumeration of the level's own stencil —
  /// tested bit-identical); spec.force_probe selects the staged
  /// hashed-probe reference engine instead.
  size_t QueryCellStencil(const CellCoord& cell, const float* mbr_lo,
                          const float* mbr_hi, CandidateCellList* out,
                          const QueryEpsSpec& spec = QueryEpsSpec()) const;

  /// O(1) lattice coordinate -> DictCell through the dictionary-global
  /// open-addressing index (always built, including after Deserialize).
  /// Returns a null ref for coordinates with no dictionary cell.
  DictCellRef FindDictCell(const CellCoord& coord) const;

  // --- Read-only serving surface (src/serve/). The label server probes
  // --- the dictionary-global index directly — stencil-ordered FindHashed
  // --- probes resolved from the 24-byte GlobalCellRefs, coordinates
  // --- confirmed against the flat ref_coords array — without going
  // --- through the Phase II candidate-list machinery. ---

  /// The dictionary-global open-addressing cell index (hashed-slot mode).
  const FlatCellIndex& cell_index() const { return cell_index_; }
  /// GlobalCellRef payloads, in the order cell_index() ids resolve to.
  const std::vector<GlobalCellRef>& cell_refs() const { return cell_refs_; }
  /// Lattice coordinates matching cell_refs() (dim int32s per cell): the
  /// hash-collision confirm array for FlatCellIndex::FindHashed.
  const std::vector<int32_t>& ref_coords() const { return ref_coords_; }

  /// Index into cell_refs() of the cell at `coord`, or -1 when absent.
  int64_t FindCellRefIndex(const CellCoord& coord) const {
    return cell_index_.FindHashed(coord.hash(), coord.data(),
                                  geom_.dim(), ref_coords_.data());
  }

  /// True when the eps-ball lattice stencil was built (build_stencil set
  /// and the offset count within max_stencil_offsets).
  bool has_stencil() const { return stencil_.enabled(); }
  const LatticeStencil& stencil() const { return stencil_; }

  /// Precomputed stencil neighborhood of the cell at global slot `slot`
  /// (an index into cell_refs()): the global slots of every dictionary
  /// cell inside its stencil window, the cell itself first (stencil
  /// offsets are non-zero, so no later entry can repeat it). This is the
  /// CSR QueryCellStencil's fast path walks; the batched serving path
  /// walks it once per query group. Only callable when has_stencil().
  const uint32_t* StencilNeighborsOf(size_t slot, size_t* count) const {
    const size_t begin = stencil_nbr_begin_[slot];
    *count = stencil_nbr_begin_[slot + 1] - begin;
    return stencil_nbr_slots_.data() + begin;
  }

  /// True when the quantized coordinate lanes were built (opts.quantized
  /// set and the coordinate span within the uint32 lattice).
  bool has_quantized() const { return quantized_.enabled; }
  /// The quantization frame for QuantizeQuery; enabled == has_quantized().
  const QuantizedSpec& quantized_spec() const { return quantized_; }

  /// Total density of all (eps, rho)-neighbor sub-cells of `p` — the count
  /// compared against minPts in core marking (Example 5.7).
  uint32_t QueryCount(const float* p, double query_eps = 0.0) const {
    uint32_t total = 0;
    Query(
        p, [&total](const DictCell&, uint32_t c) { total += c; },
        query_eps);
    return total;
  }

  /// Serializes the dictionary into the Lemma 4.3 wire layout: a fixed
  /// header, then per cell its exact position (32 bits per dimension),
  /// id and sub-cell count, then 32-bit densities, then the sub-cell
  /// positions bit-packed at d*(h-1) bits each. This is the payload the
  /// paper broadcasts to every worker (Alg. 1 line 5); Table 5 reports
  /// its size relative to the data. Every record has a fixed width or a
  /// fixed bit offset, so the encoder fills the buffer in parallel slices
  /// on `pool` when given; the bytes do not depend on the thread count.
  std::vector<uint8_t> Serialize(ThreadPool* pool = nullptr) const;

  /// Reconstructs a dictionary from Serialize() output, re-running
  /// defragmentation and index construction with `opts` (a receiving
  /// worker may use different memory limits than the sender). The global
  /// cell index and stencil are rebuilt as well, on `pool` when given.
  /// Fails with InvalidArgument on a corrupt or truncated buffer; the
  /// message names the first failing record in wire order, whatever the
  /// thread count.
  static StatusOr<CellDictionary> Deserialize(
      const std::vector<uint8_t>& bytes,
      const CellDictionaryOptions& opts = CellDictionaryOptions(),
      ThreadPool* pool = nullptr);

  /// An inert dictionary (no cells, dim-0 geometry): only useful as an
  /// assignment target — CapturedModel and the snapshot loader construct
  /// one and move a built dictionary in. Mirrors GridGeometry's default.
  CellDictionary() = default;
  CellDictionary(CellDictionary&&) = default;
  CellDictionary& operator=(CellDictionary&&) = default;
  CellDictionary(const CellDictionary&) = delete;
  CellDictionary& operator=(const CellDictionary&) = delete;

 private:
  /// One entry as the layout stage reads it, wherever it is stored
  /// (per-cell CellEntry vectors or Deserialize's decoded arrays).
  struct EntryRef {
    const CellCoord* coord = nullptr;
    uint32_t cell_id = 0;
    const DictSubcell* subcells = nullptr;
    size_t num_subcells = 0;
  };

  /// Stage 1 of every build, and all a broadcast sender needs: BSP
  /// defragmentation of the `num_entries` entries `entry_at(i)` returns
  /// (as split tasks on `pool`), then the fragments' cells and sub-cells,
  /// materialized in parallel after one prefix sum over the entry sizes.
  /// Defined and instantiated in cell_dictionary.cc only.
  template <typename EntryAt>
  static StatusOr<CellDictionary> Layout(const GridGeometry& geom,
                                         size_t num_entries,
                                         const EntryAt& entry_at,
                                         const CellDictionaryOptions& opts,
                                         ThreadPool* pool);

  /// Stage 2: every query structure over the layout — per-fragment MBRs,
  /// centers, SoA lanes and cell MBRs, the global cell index, the
  /// per-slot metadata, the stencil and its neighborhood CSR, and the
  /// candidate trees when there is no stencil (see BuildTrees).
  void BuildIndex(const CellDictionaryOptions& opts, ThreadPool* pool);

  /// The stencil neighborhood CSR (see stencil_nbr_begin_), by a pencil
  /// sweep over the lattice-sorted cells.
  void BuildStencilNeighborhoods(ThreadPool* pool);

  /// One fragment's candidate index (Lemma 5.6): the box tree over its
  /// cells' occupied-sub-cell MBRs with the cell ids in tree order (a
  /// contained node appends its run in one copy), or the R-tree over its
  /// cell centers.
  struct CandidateTree {
    BoxTree box;
    std::vector<uint32_t> cell_ids;
    RTree rtree;
  };

  /// Builds trees_ (on `pool` when given). BuildIndex calls it for a
  /// dictionary without a stencil, whose queries all take the tree
  /// engine; a stencil dictionary builds them on its first tree query.
  void BuildTrees(ThreadPool* pool) const;
  /// Builds trees_ once, whichever query needs them first.
  void EnsureTrees() const {
    if (trees_once_ != nullptr) {
      std::call_once(*trees_once_, [this] { BuildTrees(nullptr); });
    }
  }

  /// Shared tail of QueryCell / QueryCellStencil: nearest-first sort of
  /// the maybe group and the SoA flattening.
  void SortAndFlattenMaybes(CandidateCellList* out) const;

  /// QueryCellStencil body, instantiated per dimension (kDim == 0 is the
  /// runtime-dim fallback) so the per-dimension staging and hashing loops
  /// fully unroll. Unrolling the fixed-order sums does not reassociate
  /// them, so every instantiation classifies identically.
  template <size_t kDim>
  size_t QueryCellStencilImpl(const CellCoord& cell, const float* mbr_lo,
                              const float* mbr_hi, CandidateCellList* out,
                              const QueryEpsSpec& spec) const;

  /// Everything candidate classification and the SoA flatten need about
  /// one dictionary cell, resolved to direct pointers once at BuildIndex
  /// and indexed by global cell-index slot: classification reads the MBR
  /// and density from one structure, and SortAndFlattenMaybes copies the
  /// lane views out without touching the sub-dictionaries at all.
  struct SlotMeta {
    const float* lane_centers = nullptr;
    const uint32_t* lane_counts = nullptr;
    const uint32_t* lane_qcenters = nullptr;  // null without quantized mode
    const float* mbr = nullptr;               // 2 * dim floats: lo then hi
    uint32_t lane_padded = 0;
    uint32_t total_count = 0;
    uint32_t cell_id = 0;
  };

  GridGeometry geom_;
  std::vector<SubDictionary> subdicts_;
  /// Dictionary-global cell index: cell_refs_ in sub-dictionary layout
  /// order, probed through cell_index_ by coordinate hash. ref_coords_
  /// holds the matching lattice coordinates (dim int32s per cell, same
  /// order) — the hash-collision check array of FlatCellIndex::FindHashed,
  /// kept out of GlobalCellRef so the hot classification fields stay
  /// one-cache-line dense.
  std::vector<GlobalCellRef> cell_refs_;
  std::vector<int32_t> ref_coords_;
  /// Per-slot classification/flatten metadata, parallel to cell_refs_.
  std::vector<SlotMeta> slot_meta_;
  /// First global slot of each sub-dictionary (subdicts_.size() + 1
  /// entries): slot of (subdict f, local cell i) = subdict_ref_base_[f]
  /// + i, how the tree engine addresses the per-slot metadata.
  std::vector<uint32_t> subdict_ref_base_;
  /// Precomputed stencil neighborhoods (built when the stencil is): for
  /// the cell at global slot s, stencil_nbr_slots_[stencil_nbr_begin_[s]
  /// .. stencil_nbr_begin_[s + 1]) lists the global slots of the
  /// dictionary cells inside its stencil window — itself first, then its
  /// neighbors pencil by pencil (stencil offset prefixes in lexicographic
  /// order, each pencil's cells by ascending last coordinate). The order
  /// does not depend on the thread count, and no consumer depends on it:
  /// "maybe" candidates are re-sorted by distance bound and neighbor
  /// edges are sorted and deduplicated downstream.
  /// A per-worker query acceleration structure, never serialized: the
  /// Lemma 4.3 broadcast payload is unchanged, and Deserialize rebuilds
  /// this locally through BuildIndex.
  std::vector<size_t> stencil_nbr_begin_;
  std::vector<uint32_t> stencil_nbr_slots_;
  /// Per-fragment candidate trees (see BuildTrees). Lazily built state of
  /// a logically immutable dictionary: written once under trees_once_,
  /// read-only after.
  mutable std::vector<CandidateTree> trees_;
  mutable std::unique_ptr<std::once_flag> trees_once_;
  FlatCellIndex cell_index_;
  LatticeStencil stencil_;
  QuantizedSpec quantized_;
  size_t num_cells_ = 0;
  size_t num_subcells_ = 0;
  /// Cleared by Layout, set by BuildIndex; the inert default dictionary
  /// answers every query with nothing, as before.
  bool queryable_ = true;
  bool enable_skipping_ = true;
  CandidateIndex index_ = CandidateIndex::kKdTree;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_CELL_DICTIONARY_H_
