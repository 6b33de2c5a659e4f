#ifndef RPDBSCAN_PERFBENCH_WORKLOADS_H_
#define RPDBSCAN_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "util/status.h"

namespace rpdbscan {
namespace perfbench {

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: the end-to-end metrics with tracing off, or the
/// per-layer metrics when cfg.trace is set. Fails only on a bad
/// configuration; failures of the measured operations are counted in
/// out->ledger instead.
Status RunWorkload(const RunConfig& cfg, RunOutput* out);

}  // namespace perfbench
}  // namespace rpdbscan

#endif  // RPDBSCAN_PERFBENCH_WORKLOADS_H_
