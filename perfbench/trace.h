#ifndef RPDBSCAN_PERFBENCH_TRACE_H_
#define RPDBSCAN_PERFBENCH_TRACE_H_

// In-memory span recorder of the traced run. Spans are opened and closed
// by the benchmark's own calls into each layer's public functions (the
// library itself is not instrumented), kept in memory, and written out
// once when the run ends: as Chrome trace-event JSON and as per-span-name
// self times (a span's duration minus the part its child spans cover).
//
// Single-threaded by design: spans nest on the benchmark's main thread,
// which is the only thread that calls into the library's entry points.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace rpdbscan {
namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  // since the tracer was created
    int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    int run = 0;      // spans of one measured operation share a run id
    std::vector<std::pair<std::string, double>> args;  // counters
  };

  Tracer() : origin_(Clock::now()) {}

  /// Starts a new run id; later root spans belong to it.
  void BeginRun() { ++run_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds summed per span name.
  std::map<std::string, double> SelfSeconds() const;

  /// Chrome trace-event JSON (object form, "X" complete events, one tid
  /// per run id) with the self-time table under "otherData".
  std::string ChromeJson() const;

  /// Times one call. With a null tracer it only measures (the untraced
  /// end-to-end runs); otherwise it also records a span, nested under the
  /// innermost open scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double Close();
    /// Attaches a counter to the span (ignored when untraced).
    void Arg(const char* name, double value);

   private:
    Tracer* tracer_;
    int index_ = -1;
    Clock::time_point start_;
    double seconds_ = -1.0;
  };

 private:
  int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  int run_ = 0;
};

}  // namespace perfbench
}  // namespace rpdbscan

#endif  // RPDBSCAN_PERFBENCH_TRACE_H_
