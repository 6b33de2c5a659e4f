#ifndef RPDBSCAN_PERFBENCH_HOST_H_
#define RPDBSCAN_PERFBENCH_HOST_H_

// Host fingerprint attached to every result. compare.py refuses to compare
// two results whose identity fields differ, or whose calibration times
// differ by more than its tolerance: a number from another machine (the
// BENCH_*.json files came from a 1-vCPU host) is not a baseline.

#include <cstdint>
#include <string>

#include "util/json_writer.h"

namespace rpdbscan {
namespace perfbench {

struct HostFingerprint {
  uint64_t nproc = 0;
  std::string cpu_model;
  int64_t l1d_bytes = 0;
  int64_t l2_bytes = 0;
  int64_t l3_bytes = 0;
  std::string simd;        // resolved runtime kernel tier
  std::string build_type;  // "release" iff NDEBUG
  double calibration_ms = 0;  // median time of a fixed integer loop
};

/// Probes the CPU through cpuid and sysconf (no file reads).
HostFingerprint ProbeHost();

/// Writes the fingerprint as one JSON object.
void WriteFingerprint(JsonWriter& w, const HostFingerprint& host);

}  // namespace perfbench
}  // namespace rpdbscan

#endif  // RPDBSCAN_PERFBENCH_HOST_H_
