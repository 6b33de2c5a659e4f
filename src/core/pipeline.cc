#include "core/pipeline.h"

#include <thread>

#include "core/labeling.h"
#include "util/random.h"

namespace rpdbscan {

PipelineResources ResolveResources(const EngineOptions& engine) {
  PipelineResources r;
  r.num_threads = engine.num_threads;
  if (r.num_threads == 0) {
    r.num_threads = std::thread::hardware_concurrency();
    if (r.num_threads == 0) r.num_threads = 1;
  }
  r.num_partitions = engine.num_partitions;
  if (r.num_partitions == 0) r.num_partitions = r.num_threads * 4;
  return r;
}

Status ValidateEngine(const EngineOptions& engine) {
  if (!(engine.sampled_core_fraction > 0.0)) {
    return Status::InvalidArgument("sampled_core_fraction must be > 0");
  }
  return Status::OK();
}

CellDictionaryOptions EngineDictionaryOptions(const EngineOptions& engine) {
  CellDictionaryOptions dict_opts;
  // Stencil construction is only useful to the stencil engine; its size
  // cap (and hence the high-dimensionality fallback) stays at the
  // CellDictionaryOptions default.
  dict_opts.build_stencil = engine.batched_queries && engine.stencil_queries;
  dict_opts.quantized = engine.quantized;
  return dict_opts;
}

CellDictionaryOptions RunDictionaryOptions(const RpDbscanOptions& options) {
  CellDictionaryOptions dict_opts = EngineDictionaryOptions(options);
  dict_opts.max_cells_per_subdict = options.max_cells_per_subdict;
  dict_opts.defragment = options.defragment_dictionary;
  dict_opts.enable_skipping = options.subdictionary_skipping;
  dict_opts.index = options.use_rtree_index ? CandidateIndex::kRTree
                                            : CandidateIndex::kKdTree;
  return dict_opts;
}

Phase2Options EnginePhase2Options(const EngineOptions& engine) {
  Phase2Options phase2_opts;
  phase2_opts.batched_queries = engine.batched_queries;
  phase2_opts.stencil_queries = engine.stencil_queries;
  phase2_opts.scalar_kernels = engine.scalar_kernels;
  phase2_opts.quantized = engine.quantized;
  return phase2_opts;
}

MergeOptions EngineMergeOptions(const EngineOptions& engine, ThreadPool* pool) {
  MergeOptions merge_opts;
  merge_opts.reduce_edges = engine.reduce_edges;
  merge_opts.pool = pool;
  merge_opts.parallel_unions = !engine.sequential_merge;
  return merge_opts;
}

DictionaryBuild SenderBuild(const EngineOptions& engine) {
  return engine.simulate_broadcast ? DictionaryBuild::kWireOnly
                                   : DictionaryBuild::kQueryable;
}

StatusOr<CellDictionary> RoundTripDictionary(const CellDictionary& sender,
                                             const CellDictionaryOptions& opts,
                                             ThreadPool* pool,
                                             size_t* wire_bytes) {
  const std::vector<uint8_t> wire = sender.Serialize(pool);
  if (wire_bytes != nullptr) *wire_bytes = wire.size();
  return CellDictionary::Deserialize(wire, opts, pool);
}

Status SimulateBroadcast(const EngineOptions& engine,
                         const CellDictionaryOptions& opts, ThreadPool* pool,
                         CellDictionary* dict, size_t* bytes,
                         double* seconds) {
  if (!engine.simulate_broadcast) return Status::OK();
  Stopwatch watch;
  auto decoded = RoundTripDictionary(*dict, opts, pool, bytes);
  if (!decoded.ok()) {
    return Status::Internal("broadcast round-trip failed: " +
                            decoded.status().message());
  }
  *dict = std::move(*decoded);
  *seconds = watch.ElapsedSeconds();
  return Status::OK();
}

std::vector<uint8_t> SampledCoreMask(const CellSet& cells,
                                     const EngineOptions& engine) {
  std::vector<uint8_t> mask;
  if (engine.sampled_core_fraction >= 1.0) return mask;
  const uint64_t threshold = static_cast<uint64_t>(
      engine.sampled_core_fraction * 18446744073709551616.0);
  mask.resize(cells.num_cells());
  for (uint32_t cid = 0; cid < cells.num_cells(); ++cid) {
    const uint64_t h =
        Mix64(cells.cell(cid).coord.hash() ^ engine.core_sample_seed);
    mask[cid] = h < threshold ? 1 : 0;
  }
  return mask;
}

StatusOr<PhaseThreeResult> RunPhaseThree(
    const Dataset& data, const CellSet& cells,
    std::vector<CellSubgraph> subgraphs,
    const std::vector<uint8_t>& cell_is_core,
    const std::vector<uint8_t>& point_is_core, const PhaseThreeOptions& opts,
    ThreadPool& pool, StageAuditor& auditor) {
  // Must run before MergeSubgraphs consumes the subgraphs.
  if (opts.classic) {
    RPDBSCAN_RETURN_IF_ERROR(auditor.Run("cell-graph", [&](AuditLevel l) {
      return AuditCellGraph(data, cells, subgraphs, point_is_core,
                            cell_is_core, l);
    }));
  }

  // ---- Phase III-1: progressive graph merging (Sec. 6.1). ----
  PhaseThreeResult out;
  Stopwatch watch;
  out.merged =
      MergeSubgraphs(std::move(subgraphs), cells.num_cells(), opts.merge);
  out.merge_seconds = watch.ElapsedSeconds();
  RPDBSCAN_RETURN_IF_ERROR(auditor.Run("merge-forest", [&](AuditLevel l) {
    return AuditMergeForest(cell_is_core, out.merged, l);
  }));

  // ---- Phase III-2: point labeling (Sec. 6.2). ----
  watch.Reset();
  out.labels =
      LabelPoints(data, cells, out.merged, point_is_core, pool, opts.query_eps);
  out.label_seconds = watch.ElapsedSeconds();
  for (const int64_t l : out.labels) {
    if (l == kNoise) ++out.num_noise_points;
  }
  if (opts.classic) {
    RPDBSCAN_RETURN_IF_ERROR(auditor.Run("labels", [&](AuditLevel l) {
      return AuditLabels(data, cells, out.merged, point_is_core, out.labels,
                         opts.min_pts, l, opts.audit_seed);
    }));
  }
  return out;
}

}  // namespace rpdbscan
