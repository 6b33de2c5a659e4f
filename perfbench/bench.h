#ifndef RPDBSCAN_PERFBENCH_BENCH_H_
#define RPDBSCAN_PERFBENCH_BENCH_H_

// Shared types of the end-to-end benchmark: run configuration, the metric
// list a run reports, the operation ledger behind `attempted`/`failed`,
// and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "io/dataset.h"

namespace rpdbscan {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Fault injected into one timed clustering call, so the self-test can
/// prove that the checks count failures.
enum class Inject {
  kNone,
  kFlipLabel,    // flip one label of the call's output before checking
  kErrorStatus,  // issue the call with invalid options (error Status)
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;      // offset added to the workload's generator seed
  double seconds = 10.0;  // measurement budget of one run
  bool trace = false;
  bool smoke = false;  // tiny sizes, for the self-test only
  Inject inject = Inject::kNone;
  std::string pinned_path;  // label fingerprints pinned for seed 0
  std::string trace_path;   // Chrome trace-event output (trace runs)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Every timed or checked operation of a run: attempted, and failed when it
/// returned an error Status or failed an output check.
class OpLedger {
 public:
  /// Records one operation; returns `ok` so callers can chain on it.
  bool Record(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few reasons
};

/// What a workload hands back to main: metrics in report order, the ledger,
/// the label fingerprint of its reference output, and extra detail for the
/// result file (sample counts, trace self times).
struct RunOutput {
  std::vector<Metric> metrics;
  OpLedger ledger;
  uint64_t label_hash = 0;
  std::vector<Metric> detail;
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// FNV-1a over the label bytes; chaining `h` combines several label
/// vectors (the ladder's rungs).
uint64_t HashLabels(const Labels& labels,
                    uint64_t h = 0xcbf29ce484222325ull);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
}  // namespace rpdbscan

#endif  // RPDBSCAN_PERFBENCH_BENCH_H_
