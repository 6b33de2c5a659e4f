#ifndef RPDBSCAN_CORE_PIPELINE_H_
#define RPDBSCAN_CORE_PIPELINE_H_

// The stages of Alg. 1 that every pipeline driver shares. RunRpDbscan,
// the eps ladder (BuildClusterHierarchy) and the stream epochs
// (StreamClusterer) each compose Phase I-1 -> I-2 -> broadcast -> II ->
// III-1 -> III-2 from these pieces, so an engine toggle, the sampled-core
// mask, the broadcast round-trip and the Phase III tail are decided in one
// place (DESIGN.md §4, "Pipeline drivers").

#include <string>
#include <utility>
#include <vector>

#include "core/rp_dbscan.h"
#include "util/stopwatch.h"
#include "verify/audit.h"

namespace rpdbscan {

/// Threads and partitions with the 0 = auto defaults resolved: hardware
/// concurrency (at least 1), and four partitions per thread.
struct PipelineResources {
  size_t num_threads = 1;
  size_t num_partitions = 4;
};
PipelineResources ResolveResources(const EngineOptions& engine);

/// Rejects engine settings no driver can run (sampled_core_fraction <= 0).
Status ValidateEngine(const EngineOptions& engine);

/// The engine set mapped onto the stage options. RunDictionaryOptions adds
/// RpDbscanOptions' dictionary-only knobs to EngineDictionaryOptions.
CellDictionaryOptions EngineDictionaryOptions(const EngineOptions& engine);
CellDictionaryOptions RunDictionaryOptions(const RpDbscanOptions& options);
Phase2Options EnginePhase2Options(const EngineOptions& engine);
MergeOptions EngineMergeOptions(const EngineOptions& engine, ThreadPool* pool);

/// What Phase I-2 builds: the wire layout alone when the broadcast is
/// simulated (the sender only encodes), else the queried dictionary.
DictionaryBuild SenderBuild(const EngineOptions& engine);

/// Encodes `sender` to the Lemma 4.3 wire layout and decodes it with
/// `opts` into a queryable dictionary; `*wire_bytes` gets the payload size.
StatusOr<CellDictionary> RoundTripDictionary(const CellDictionary& sender,
                                             const CellDictionaryOptions& opts,
                                             ThreadPool* pool,
                                             size_t* wire_bytes = nullptr);

/// Alg. 1 line 5, when engine.simulate_broadcast: replaces the sender-built
/// `*dict` by its decoded wire copy, recording payload bytes (`bytes` may
/// be null) and wall seconds.
Status SimulateBroadcast(const EngineOptions& engine,
                         const CellDictionaryOptions& opts, ThreadPool* pool,
                         CellDictionary* dict, size_t* bytes,
                         double* seconds);

/// The sampled-core cell mask: a cell stays a core candidate iff the hash
/// of its coordinate with core_sample_seed falls below the fraction, so
/// the same cells are kept at every ladder rung (core-set monotonicity).
/// Empty — the exact run — when the fraction is >= 1.
std::vector<uint8_t> SampledCoreMask(const CellSet& cells,
                                     const EngineOptions& engine);

/// Runs one pipeline run's between-stage audits at one level, tallying
/// checks, violations and wall time. A violated stage fails the run with
/// an Internal status naming it; later phases would only spread the damage.
struct StageAuditor {
  explicit StageAuditor(AuditLevel level = AuditLevel::kOff,
                        std::string stage_prefix = "")
      : level(level), stage_prefix(std::move(stage_prefix)) {}

  /// Unless the level is kOff, calls `audit(level)` for an AuditReport.
  template <typename AuditFn>
  Status Run(const char* stage, AuditFn&& audit) {
    if (level == AuditLevel::kOff) return Status::OK();
    Stopwatch watch;
    const AuditReport report = audit(level);
    seconds += watch.ElapsedSeconds();
    checks += report.checks();
    violations += report.violations();
    return report.ToStatus(stage_prefix + stage);
  }

  AuditLevel level = AuditLevel::kOff;
  std::string stage_prefix;
  size_t checks = 0;
  size_t violations = 0;
  double seconds = 0.0;
};

struct PhaseThreeOptions {
  size_t min_pts = 0;
  double query_eps = 0.0;  // radius of the border walk; 0 = geometry eps
  /// The cell-graph and label audits recompute densities at the geometry
  /// eps with exact cores: only the classic coupled, unsampled run has them.
  bool classic = true;
  uint64_t audit_seed = 0;  // the label audit's spot-check sample
  MergeOptions merge;
};

struct PhaseThreeResult {
  MergeResult merged;
  Labels labels;
  size_t num_noise_points = 0;
  double merge_seconds = 0.0;
  double label_seconds = 0.0;
};

/// Phase III over a finished cell graph, in order: the cell-graph audit
/// (classic only), MergeSubgraphs (consuming `subgraphs`), the merge-forest
/// audit, LabelPoints, and the label audit (classic only).
StatusOr<PhaseThreeResult> RunPhaseThree(
    const Dataset& data, const CellSet& cells,
    std::vector<CellSubgraph> subgraphs,
    const std::vector<uint8_t>& cell_is_core,
    const std::vector<uint8_t>& point_is_core, const PhaseThreeOptions& opts,
    ThreadPool& pool, StageAuditor& auditor);

}  // namespace rpdbscan

#endif  // RPDBSCAN_CORE_PIPELINE_H_
