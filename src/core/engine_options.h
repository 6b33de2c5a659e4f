#ifndef RPDBSCAN_CORE_ENGINE_OPTIONS_H_
#define RPDBSCAN_CORE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace rpdbscan {

/// The engine knobs every pipeline driver shares. RpDbscanOptions and
/// HierarchyOptions derive from this one set, and core/pipeline.h maps it
/// onto the stage options in one place, so a toggle means the same thing
/// in RunRpDbscan, the eps ladder and the stream. A base struct rather than
/// a member keeps `opts.batched_queries` and the other names readable.
struct EngineOptions {
  /// Approximation rate of the two-level dictionary (Def. 4.1); the
  /// paper's 0.01 matches exact DBSCAN on its accuracy sets (Table 4).
  double rho = 0.01;
  /// Pseudo random partitions (the paper's k); 0 = four per thread.
  size_t num_partitions = 0;
  /// Worker threads standing in for executors; 0 = hardware concurrency.
  size_t num_threads = 0;
  uint64_t seed = 7;  // partition assignment

  /// Phase II query engine: the batched per-cell (eps,rho)-region kernel
  /// (one dictionary traversal per cell, early exit at min_pts) vs the
  /// reference per-point Query path. Identical clustering; for ablation.
  bool batched_queries = true;

  /// Phase II candidate enumeration (with batched_queries): the lattice
  /// stencil's precomputed eps-ball neighborhoods vs per-sub-dictionary
  /// tree descent (Lemma 5.6). Falls back to the tree path when the
  /// stencil would exceed its size cap (d >= 6). Identical clustering.
  bool stencil_queries = true;

  /// Phase I-1 engine: parallel radix-sorted CSR grouping vs the hash-map
  /// scan. Bit-identical cell sets (first-encounter cell order, ascending
  /// point ids); for ablation.
  bool sorted_phase1 = true;

  /// Force the scalar reference distance kernels, bypassing runtime SIMD
  /// dispatch (as the RPDBSCAN_FORCE_SCALAR environment variable does).
  /// Labels are bit-identical: the vector kernels are exact.
  bool scalar_kernels = false;

  /// Quantized fixed-point candidate pre-filter: integer distance bounds
  /// with the exact float path inside the quantization error band, so
  /// labels stay bit-identical. Off (reported in RunStats) when the data
  /// span overflows the 32-bit lattice.
  bool quantized = false;

  /// The sequential tournament merge (Sec. 6.1.1) instead of the
  /// edge-parallel union-find. Bit-identical labels and cluster ids; on
  /// for the per-round edge series (Fig. 17).
  bool sequential_merge = false;

  /// Round-trip the dictionary through its Lemma 4.3 wire format before
  /// Phase II, as the Spark implementation broadcasts it to every worker
  /// (Alg. 1 line 5). Measures the real broadcast payload size.
  bool simulate_broadcast = true;
  /// Spanning-forest full-edge reduction during merging (Sec. 6.1.4).
  bool reduce_edges = true;

  /// DBSCAN++-style sampled-core approximation: the fraction of cells that
  /// stay core candidates, chosen by a per-cell-coordinate hash so every
  /// ladder level samples the same cells. Unsampled cells' points can
  /// still be borders of sampled neighbors. >= 1 keeps the exact run.
  double sampled_core_fraction = 1.0;
  /// Seed of the sampled-core cell hash.
  uint64_t core_sample_seed = 0x9e3779b97f4a7c15ull;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_ENGINE_OPTIONS_H_
