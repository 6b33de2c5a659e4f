#include "pipeline.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/cell_dictionary.h"
#include "core/cell_set.h"
#include "core/grid.h"
#include "core/labeling.h"
#include "core/merge.h"
#include "core/phase2.h"
#include "parallel/thread_pool.h"

namespace rpdbscan {
namespace perfbench {
namespace {

size_t PartitionsFor(size_t num_partitions, size_t num_threads) {
  return num_partitions > 0 ? num_partitions : num_threads * 4;
}

/// Phase I-1, Phase I-2 and the broadcast round-trip, shared by the plain
/// and the ladder decomposition.
struct SharedStages {
  CellSet cells;
  CellDictionary dict;
};

StatusOr<SharedStages> BuildShared(const Dataset& data,
                                   const GridGeometry& geom,
                                   size_t num_partitions, uint64_t seed,
                                   bool sorted_phase1, bool broadcast,
                                   const CellDictionaryOptions& dict_opts,
                                   ThreadPool& pool, Tracer* tracer,
                                   DecomposedRun* run) {
  PipelineCounters& c = run->counters;
  Tracer::Scope cell_span(tracer, "cell_set.build");
  auto cells = CellSet::Build(data, geom, num_partitions, seed, &pool,
                              sorted_phase1);
  run->seconds.cell_set += cell_span.Close();
  if (!cells.ok()) return cells.status();
  c.cells = static_cast<double>(cells->num_cells());

  Tracer::Scope dict_span(tracer, "cell_dictionary.build");
  auto dict = CellDictionary::Build(data, *cells, dict_opts, &pool);
  run->seconds.dict_build += dict_span.Close();
  if (!dict.ok()) return dict.status();

  if (broadcast) {
    Tracer::Scope ser_span(tracer, "cell_dictionary.serialize");
    const std::vector<uint8_t> wire = dict->Serialize();
    ser_span.Arg("wire_bytes", static_cast<double>(wire.size()));
    run->seconds.serialize += ser_span.Close();
    c.wire_bytes = static_cast<double>(wire.size());

    Tracer::Scope de_span(tracer, "cell_dictionary.deserialize");
    auto decoded = CellDictionary::Deserialize(wire, dict_opts, &pool);
    run->seconds.deserialize += de_span.Close();
    if (!decoded.ok()) return decoded.status();
    dict = std::move(decoded);
  }
  c.subcells = static_cast<double>(dict->num_subcells());
  c.subdicts = static_cast<double>(dict->num_subdictionaries());
  c.lemma43_bytes = static_cast<double>(dict->SizeBytesLemma43());
  return SharedStages{std::move(*cells), std::move(*dict)};
}

/// Phase II, III-1 and III-2 of one radius; the result's labels are
/// appended to run->labels.
struct RungResult {
  MergeResult merged;
  std::vector<uint8_t> point_is_core;
};

RungResult RunRung(const Dataset& data, const SharedStages& shared,
                   size_t min_pts, const Phase2Options& phase2_opts,
                   bool reduce_edges, bool sequential_merge, ThreadPool& pool,
                   Tracer* tracer, DecomposedRun* run) {
  PipelineCounters& c = run->counters;
  Tracer::Scope p2_span(tracer, "phase2.build_subgraphs");
  Phase2Result phase2 = BuildSubgraphs(data, shared.cells, shared.dict,
                                       min_pts, pool, phase2_opts);
  p2_span.Arg("stencil_probes", static_cast<double>(phase2.stencil_probes));
  p2_span.Arg("candidate_cells_scanned",
              static_cast<double>(phase2.candidate_cells_scanned));
  run->seconds.phase2 += p2_span.Close();
  if (!phase2.task_seconds.empty()) {
    const double max_task = *std::max_element(phase2.task_seconds.begin(),
                                              phase2.task_seconds.end());
    const double mean_task =
        std::accumulate(phase2.task_seconds.begin(),
                        phase2.task_seconds.end(), 0.0) /
        static_cast<double>(phase2.task_seconds.size());
    c.task_max_over_mean += mean_task > 0 ? max_task / mean_task : 0;
  }
  c.points_scanned += static_cast<double>(data.size());
  c.candidate_cells_scanned +=
      static_cast<double>(phase2.candidate_cells_scanned);
  c.early_exits += static_cast<double>(phase2.early_exits);
  c.stencil_probes += static_cast<double>(phase2.stencil_probes);
  c.stencil_hits += static_cast<double>(phase2.stencil_hits);
  c.subdict_visited += static_cast<double>(phase2.subdict_visited);
  c.subdict_possible += static_cast<double>(phase2.subdict_possible);
  for (const uint8_t core : phase2.cell_is_core) c.core_cells += core;

  Tracer::Scope merge_span(tracer, "merge.merge");
  MergeOptions merge_opts;
  merge_opts.reduce_edges = reduce_edges;
  merge_opts.pool = &pool;
  merge_opts.parallel_unions = !sequential_merge;
  MergeResult merged = MergeSubgraphs(std::move(phase2.subgraphs),
                                      shared.cells.num_cells(), merge_opts);
  run->seconds.merge += merge_span.Close();
  if (!merged.edges_per_round.empty()) {
    c.edges_in += static_cast<double>(merged.edges_per_round.front());
    c.edges_kept += static_cast<double>(merged.edges_per_round.back());
  }

  Tracer::Scope label_span(tracer, "labeling.label");
  Labels labels = LabelPoints(data, shared.cells, merged,
                              phase2.point_is_core, pool,
                              phase2_opts.query_eps);
  run->seconds.label += label_span.Close();
  for (const int64_t l : labels) c.noise_points += l == kNoise ? 1 : 0;
  run->labels.push_back(std::move(labels));
  return RungResult{std::move(merged), std::move(phase2.point_is_core)};
}

}  // namespace

StatusOr<DecomposedRun> RunDecomposed(const Dataset& data,
                                      const RpDbscanOptions& opts,
                                      Tracer* tracer) {
  if (opts.point_source != nullptr || opts.shard_workers >= 2 ||
      opts.query_eps != 0.0 || opts.sampled_core_fraction < 1.0) {
    return Status::Unimplemented("decomposition covers the in-RAM exact run");
  }
  DecomposedRun run;
  Tracer::Scope total(tracer, "pipeline.rp_dbscan");
  auto geom = GridGeometry::Create(data.dim(), opts.eps, opts.rho);
  if (!geom.ok()) return geom.status();
  const size_t threads = opts.num_threads > 0 ? opts.num_threads : 1;
  ThreadPool pool(threads);

  CellDictionaryOptions dict_opts;
  dict_opts.max_cells_per_subdict = opts.max_cells_per_subdict;
  dict_opts.defragment = opts.defragment_dictionary;
  dict_opts.enable_skipping = opts.subdictionary_skipping;
  dict_opts.index =
      opts.use_rtree_index ? CandidateIndex::kRTree : CandidateIndex::kKdTree;
  dict_opts.build_stencil = opts.batched_queries && opts.stencil_queries;
  dict_opts.quantized = opts.quantized;
  dict_opts.stencil_eps_scale = opts.stencil_eps_scale;
  auto shared = BuildShared(data, *geom,
                            PartitionsFor(opts.num_partitions, threads),
                            opts.seed, opts.sorted_phase1,
                            opts.simulate_broadcast, dict_opts, pool, tracer,
                            &run);
  if (!shared.ok()) return shared.status();

  Phase2Options phase2_opts;
  phase2_opts.batched_queries = opts.batched_queries;
  phase2_opts.stencil_queries = opts.stencil_queries;
  phase2_opts.scalar_kernels = opts.scalar_kernels;
  phase2_opts.quantized = opts.quantized;
  RungResult rung = RunRung(data, *shared, opts.min_pts, phase2_opts,
                            opts.reduce_edges, opts.sequential_merge, pool,
                            tracer, &run);
  if (opts.capture_model) {
    Tracer::Scope capture_span(tracer, "snapshot.capture");
    CapturedModel model = BuildCapturedModel(
        data, shared->cells, std::move(rung.merged),
        std::move(rung.point_is_core), std::move(shared->dict), opts.min_pts);
    run.seconds.capture += capture_span.Close();
  }
  run.total_seconds = total.Close();
  return run;
}

StatusOr<DecomposedRun> RunDecomposedLadder(const Dataset& data,
                                            const HierarchyOptions& opts,
                                            Tracer* tracer) {
  if (opts.eps_levels.empty() || opts.min_pts_levels.size() != 1 ||
      opts.sampled_core_fraction < 1.0 || opts.force_probe ||
      opts.capture_models) {
    return Status::Unimplemented(
        "decomposition covers exact ladders with one min_pts");
  }
  DecomposedRun run;
  Tracer::Scope total(tracer, "pipeline.hierarchy");
  const double eps0 = opts.eps_levels.front();
  auto geom = GridGeometry::Create(data.dim(), eps0, opts.rho);
  if (!geom.ok()) return geom.status();
  const size_t threads = opts.num_threads > 0 ? opts.num_threads : 1;
  ThreadPool pool(threads);

  CellDictionaryOptions dict_opts;
  dict_opts.build_stencil = opts.batched_queries && opts.stencil_queries;
  dict_opts.quantized = opts.quantized;
  dict_opts.stencil_eps_scale = opts.eps_levels.back() / eps0;
  auto shared = BuildShared(data, *geom,
                            PartitionsFor(opts.num_partitions, threads),
                            opts.seed, opts.sorted_phase1,
                            opts.simulate_broadcast, dict_opts, pool, tracer,
                            &run);
  if (!shared.ok()) return shared.status();

  std::vector<uint8_t> prev_core;
  for (size_t i = 0; i < opts.eps_levels.size(); ++i) {
    Phase2Options phase2_opts;
    phase2_opts.batched_queries = opts.batched_queries;
    phase2_opts.stencil_queries = opts.stencil_queries;
    phase2_opts.scalar_kernels = opts.scalar_kernels;
    phase2_opts.quantized = opts.quantized;
    phase2_opts.query_eps = opts.eps_levels[i];
    if (opts.seed_from_previous && i > 0) {
      phase2_opts.seed_point_core = prev_core.data();
    }
    RungResult rung = RunRung(data, *shared, opts.min_pts_levels[0],
                              phase2_opts, opts.reduce_edges,
                              opts.sequential_merge, pool, tracer, &run);
    prev_core = std::move(rung.point_is_core);
  }
  run.counters.task_max_over_mean /=
      static_cast<double>(opts.eps_levels.size());
  run.total_seconds = total.Close();
  return run;
}

}  // namespace perfbench
}  // namespace rpdbscan
