#include "stream/incremental.h"

#include <utility>

#include "core/pipeline.h"
#include "parallel/parallel_for.h"
#include "stream/dirty_set.h"
#include "util/stopwatch.h"
#include "verify/audit.h"

namespace rpdbscan {

StreamClusterer::StreamClusterer(RpDbscanOptions options, IngestBuffer buffer)
    : options_(std::move(options)),
      pool_(std::make_unique<ThreadPool>(options_.num_threads)),
      buffer_(std::move(buffer)) {}

StatusOr<StreamClusterer> StreamClusterer::Create(
    Dataset seed_batch, const RpDbscanOptions& options) {
  if (options.min_pts == 0) {
    return Status::InvalidArgument("min_pts must be >= 1");
  }
  if (seed_batch.empty()) {
    return Status::InvalidArgument("seed batch is empty");
  }
  // An epoch splices per-cell results computed at the geometry eps with
  // exact cores; a decoupled radius or a sampled core set would silently
  // change the labels, so they are refused rather than dropped.
  if (options.query_eps != 0.0) {
    return Status::InvalidArgument(
        "the stream cannot reproduce query_eps; leave it 0");
  }
  if (options.sampled_core_fraction < 1.0) {
    return Status::InvalidArgument(
        "the stream cannot reproduce sampled_core_fraction < 1");
  }
  auto geom_or =
      GridGeometry::Create(seed_batch.dim(), options.eps, options.rho);
  if (!geom_or.ok()) return geom_or.status();

  // Resolved at stream start so every epoch draws the same partition
  // split a from-scratch run would.
  const PipelineResources res = ResolveResources(options);
  RpDbscanOptions resolved = options;
  resolved.num_threads = res.num_threads;
  resolved.num_partitions = res.num_partitions;

  ThreadPool build_pool(res.num_threads);
  auto buffer_or =
      IngestBuffer::Create(std::move(seed_batch), *geom_or,
                           resolved.num_partitions, resolved.seed,
                           &build_pool, resolved.sorted_phase1);
  if (!buffer_or.ok()) return buffer_or.status();
  return StreamClusterer(std::move(resolved), std::move(*buffer_or));
}

Status StreamClusterer::Ingest(const Dataset& batch) {
  return buffer_.Append(batch, pool_.get());
}

StatusOr<EpochResult> StreamClusterer::PublishEpoch() {
  Stopwatch watch;
  ThreadPool& pool = *pool_;
  const Dataset& data = buffer_.data();
  const CellSet& cells = buffer_.cells();
  const GridGeometry& geom = cells.geom();
  const size_t num_cells = cells.num_cells();
  StageAuditor auditor(options_.audit_level, "stream ");

  EpochStats stats;
  stats.sequence = sequence_;
  stats.total_points = data.size();
  stats.total_cells = num_cells;
  stats.batches_ingested = buffer_.num_batches();
  stats.rekeys = buffer_.rekeys();

  const std::vector<uint32_t> touched = buffer_.TakeTouched();
  stats.touched_cells = touched.size();

  RPDBSCAN_RETURN_IF_ERROR(auditor.Run("cell-set", [&](AuditLevel l) {
    return AuditCellSet(data, cells, l);
  }));

  // ---- Sub-cell assembly, touched cells only. A cell's dictionary entry
  // is a pure function of its point list, so untouched entries carry over
  // verbatim; the assembled dictionary is structurally identical to a
  // from-scratch Build (tree layout and stencil depend only on the entry
  // set). The broadcast round-trip is skipped: the wire codec is lossless
  // (covered by snapshot/dictionary round-trip tests), so on one machine
  // it changes nothing an epoch could observe.
  entries_.resize(num_cells);
  if (!touched.empty()) {
    ParallelFor(pool, touched.size(), [&](size_t i) {
      const uint32_t cid = touched[i];
      entries_[cid] =
          CellDictionary::MakeCellEntry(data, geom, cells.cell(cid), cid);
    });
  }
  const CellDictionaryOptions dict_opts = RunDictionaryOptions(options_);
  auto dict_or = CellDictionary::FromEntries(geom, entries_, dict_opts, &pool);
  if (!dict_or.ok()) return dict_or.status();
  const CellDictionary& dict = *dict_or;
  RPDBSCAN_RETURN_IF_ERROR(auditor.Run("dictionary", [&](AuditLevel l) {
    return AuditDictionary(data, cells, dict, l);
  }));

  // ---- Dirty closure + Phase II recompute, dirty cells only. ----
  const DirtySet dirty = DirtySetTracker::Resolve(dict, cells, touched);
  stats.dirty_cells = dirty.cells.size();
  stats.dirty_used_stencil = dirty.used_stencil;

  point_is_core_.resize(data.size(), 0);
  cell_is_core_.resize(num_cells, 0);
  cell_edges_.resize(num_cells);
  Phase2CellUpdate update =
      RecomputeCells(data, cells, dict, options_.min_pts, pool,
                     EnginePhase2Options(options_), dirty.cells,
                     point_is_core_.data());
  stats.reclustered_points = update.recomputed_points;
  for (size_t t = 0; t < dirty.cells.size(); ++t) {
    const uint32_t cid = dirty.cells[t];
    cell_is_core_[cid] = update.cell_is_core[t];
    cell_edges_[cid] = std::move(update.cell_edges[t]);
  }

  // ---- Rebuild the per-partition subgraphs from the spliced caches, in
  // the exact shape BuildSubgraphs emits (same partition order, same
  // owned order, same per-cell ascending edge lists), so the merge sees
  // bit-identical input to a from-scratch run.
  const size_t k = cells.num_partitions();
  std::vector<CellSubgraph> subgraphs(k);
  for (uint32_t pid = 0; pid < k; ++pid) {
    CellSubgraph& graph = subgraphs[pid];
    graph.partition_id = pid;
    for (const uint32_t cid : cells.partition(pid)) {
      const bool core = cell_is_core_[cid] != 0;
      graph.owned.emplace_back(cid,
                               core ? CellType::kCore : CellType::kNonCore);
      if (core) {
        for (const uint32_t to : cell_edges_[cid]) {
          graph.edges.push_back(CellEdge{cid, to, EdgeType::kUndetermined});
        }
      }
    }
  }

  // ---- Merge + label over the full (spliced) graph. ----
  PhaseThreeOptions tail;
  tail.min_pts = options_.min_pts;
  tail.audit_seed = options_.seed;
  tail.merge = EngineMergeOptions(options_, &pool);
  auto tail_or = RunPhaseThree(data, cells, std::move(subgraphs),
                               cell_is_core_, point_is_core_, tail, pool,
                               auditor);
  if (!tail_or.ok()) return tail_or.status();
  stats.num_clusters = tail_or->merged.num_clusters;
  stats.num_noise_points = tail_or->num_noise_points;

  // ---- Package as a snapshot with epoch lineage. ----
  CapturedModel model = BuildCapturedModel(
      data, cells, std::move(tail_or->merged), point_is_core_,
      std::move(*dict_or), options_.min_pts);
  SnapshotOptions snap_opts;
  snap_opts.dict_opts = dict_opts;
  auto snap_or = ClusterModelSnapshot::FromModel(std::move(model), snap_opts);
  if (!snap_or.ok()) return snap_or.status();
  ClusterModelSnapshot::EpochInfo info;
  info.sequence = sequence_;
  info.parent_sequence = sequence_ == 0 ? 0 : sequence_ - 1;
  info.points_ingested = data.size();
  info.batches_ingested = buffer_.num_batches();
  snap_or->set_epoch(info);

  ++sequence_;
  stats.epoch_publish_seconds = watch.ElapsedSeconds();
  return EpochResult{std::move(*snap_or), std::move(tail_or->labels), stats};
}

}  // namespace rpdbscan
