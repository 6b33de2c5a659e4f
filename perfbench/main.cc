// End-to-end benchmark program: runs one workload and prints its metrics.
//
//   rp_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--inject none|flip-label|error-status]
//                [--pinned FILE] [--result-file FILE] [--trace-file FILE]
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. --result-file
// receives the same numbers plus the host fingerprint, failed_frac, the
// label fingerprint, per-run detail and failure reasons (compare.py reads
// it). See NOTES.md for the workloads and metrics.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "host.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace rpdbscan {
namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "rp_perfbench: %s\n"
               "usage: rp_perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--smoke]\n"
               "       [--inject none|flip-label|error-status] [--pinned FILE]"
               " [--result-file FILE] [--trace-file FILE]\n",
               why);
  return 2;
}

void WriteMetrics(JsonWriter& w, const std::vector<Metric>& metrics) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string result_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if ((v = next()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--inject") {
      if (std::strcmp(v, "flip-label") == 0) {
        cfg.inject = Inject::kFlipLabel;
      } else if (std::strcmp(v, "error-status") == 0) {
        cfg.inject = Inject::kErrorStatus;
      } else if (std::strcmp(v, "none") != 0) {
        return Usage("unknown --inject value");
      }
    } else if (arg == "--pinned") {
      cfg.pinned_path = v;
    } else if (arg == "--result-file") {
      result_path = v;
    } else if (arg == "--trace-file") {
      cfg.trace_path = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.workload.empty()) return Usage("--workload is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  const HostFingerprint host = ProbeHost();
  JsonWriter fingerprint;
  WriteFingerprint(fingerprint, host);
  std::printf("workload %s seed %" PRIu64 " trace %d\nfingerprint %s\n",
              cfg.workload.c_str(), cfg.seed, cfg.trace ? 1 : 0,
              fingerprint.str().c_str());
  std::fflush(stdout);

  RunOutput out;
  const Status status = RunWorkload(cfg, &out);
  if (!status.ok()) return Usage(status.ToString().c_str());

  const OpLedger& ledger = out.ledger;
  const bool correct = ledger.attempted() > 0 && ledger.failed() == 0;
  const double failed_frac =
      ledger.attempted() > 0 ? static_cast<double>(ledger.failed()) /
                                   static_cast<double>(ledger.attempted())
                             : 1.0;
  for (const std::string& why : ledger.failures()) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-40s %14.6g %s (%" PRIu64 " of %" PRIu64 " operations)\n",
              "failed_frac", failed_frac, "ratio", ledger.failed(),
              ledger.attempted());
  std::printf("  %-40s %14.16" PRIx64 "\n", "label_fingerprint",
              out.label_hash);

  if (!result_path.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("workload").Value(cfg.workload);
    w.Key("seed").Value(cfg.seed);
    w.Key("trace").Value(cfg.trace);
    w.Key("smoke").Value(cfg.smoke);
    w.Key("seconds").Value(cfg.seconds);
    w.Key("correct").Value(correct);
    w.Key("attempted").Value(ledger.attempted());
    w.Key("failed").Value(ledger.failed());
    w.Key("failed_frac").Value(failed_frac);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, out.label_hash);
    w.Key("label_fingerprint").Value(hex);
    w.Key("metrics");
    WriteMetrics(w, out.metrics);
    w.Key("detail");
    WriteMetrics(w, out.detail);
    w.Key("failures").BeginArray();
    for (const std::string& why : ledger.failures()) w.Value(why);
    w.EndArray();
    w.Key("fingerprint");
    WriteFingerprint(w, host);
    w.EndObject();
    std::ofstream file(result_path);
    file << w.str() << '\n';
    if (!file) return Usage(("cannot write " + result_path).c_str());
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("correct").Value(correct);
  w.Key("attempted").Value(ledger.attempted());
  w.Key("failed").Value(ledger.failed());
  w.Key("metrics");
  WriteMetrics(w, out.metrics);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace rpdbscan

int main(int argc, char** argv) {
  return rpdbscan::perfbench::Main(argc, argv);
}
