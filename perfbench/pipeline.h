#ifndef RPDBSCAN_PERFBENCH_PIPELINE_H_
#define RPDBSCAN_PERFBENCH_PIPELINE_H_

// The traced run's decomposition: RunRpDbscan (and BuildClusterHierarchy)
// re-expressed as the sequence of public layer calls they make, with the
// same options, each call wrapped in a span. The labels must stay
// bit-equal to the library entry point's; what the spans do not cover
// shows up as trace.unattributed_s.

#include <vector>

#include "core/rp_dbscan.h"
#include "hierarchy/eps_ladder.h"
#include "io/dataset.h"
#include "trace.h"
#include "util/status.h"

namespace rpdbscan {
namespace perfbench {

/// Seconds per layer call (summed over rungs for a ladder).
struct LayerSeconds {
  double cell_set = 0;
  double dict_build = 0;
  double serialize = 0;
  double deserialize = 0;
  double phase2 = 0;
  double merge = 0;
  double label = 0;
  double capture = 0;

  double Sum() const {
    return cell_set + dict_build + serialize + deserialize + phase2 + merge +
           label + capture;
  }
};

/// Counters read from the layers' public results (summed over rungs for a
/// ladder, except task_max_over_mean, which is averaged).
struct PipelineCounters {
  double cells = 0;
  double subcells = 0;
  double subdicts = 0;
  double lemma43_bytes = 0;
  double wire_bytes = 0;
  double task_max_over_mean = 0;
  double points_scanned = 0;  // points whose density Phase II evaluated
  double candidate_cells_scanned = 0;
  double early_exits = 0;
  double stencil_probes = 0;
  double stencil_hits = 0;
  double subdict_visited = 0;
  double subdict_possible = 0;
  double core_cells = 0;
  double edges_in = 0;
  double edges_kept = 0;
  double noise_points = 0;
};

struct DecomposedRun {
  std::vector<Labels> labels;  // one entry per rung; one for a plain run
  LayerSeconds seconds;
  double total_seconds = 0;  // wall time of the whole decomposed call
  PipelineCounters counters;
};

/// RunRpDbscan(data, opts) as CellSet::Build -> CellDictionary::Build ->
/// Serialize -> Deserialize -> BuildSubgraphs -> MergeSubgraphs ->
/// LabelPoints (-> BuildCapturedModel when opts.capture_model). Supports
/// the options the benchmark uses: in-RAM Phase I, no sharding, exact
/// cores, coupled query radius.
StatusOr<DecomposedRun> RunDecomposed(const Dataset& data,
                                      const RpDbscanOptions& opts,
                                      Tracer* tracer);

/// BuildClusterHierarchy(data, opts) as one shared Phase I + dictionary +
/// broadcast, then BuildSubgraphs/MergeSubgraphs/LabelPoints per rung with
/// the previous rung's cores as seeds. Supports exact, unsampled ladders
/// without model capture.
StatusOr<DecomposedRun> RunDecomposedLadder(const Dataset& data,
                                            const HierarchyOptions& opts,
                                            Tracer* tracer);

}  // namespace perfbench
}  // namespace rpdbscan

#endif  // RPDBSCAN_PERFBENCH_PIPELINE_H_
