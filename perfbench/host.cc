#include "host.h"

#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "core/simd.h"

namespace rpdbscan {
namespace perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      unsigned int regs[4] = {};
      __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, sizeof(regs));
    }
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

/// A fixed dependent chain of integer mixes: measures per-core speed
/// without touching memory, so it tracks clock and microarchitecture.
double CalibrationMs() {
  std::vector<double> times;
  uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(rep);
    for (int i = 0; i < 20000000; ++i) {
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
      x += static_cast<uint64_t>(i);
    }
    sink ^= x;
    times.push_back(SecondsSince(t0) * 1e3);
  }
  // Keeps the loop observable.
  if (sink == 42) times.push_back(0);
  return Median(times);
}

}  // namespace

HostFingerprint ProbeHost() {
  HostFingerprint host;
  host.nproc = std::thread::hardware_concurrency();
  host.cpu_model = CpuModel();
  host.l1d_bytes = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  host.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  host.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  host.simd = SimdLevelName(DetectSimdLevel());
#ifdef NDEBUG
  host.build_type = "release";
#else
  host.build_type = "debug";
#endif
  host.calibration_ms = CalibrationMs();
  return host;
}

void WriteFingerprint(JsonWriter& w, const HostFingerprint& host) {
  w.BeginObject();
  w.Key("nproc").Value(host.nproc);
  w.Key("cpu_model").Value(host.cpu_model);
  w.Key("l1d_bytes").Value(host.l1d_bytes);
  w.Key("l2_bytes").Value(host.l2_bytes);
  w.Key("l3_bytes").Value(host.l3_bytes);
  w.Key("simd").Value(host.simd);
  w.Key("build_type").Value(host.build_type);
  w.Key("calibration_ms").Value(host.calibration_ms);
  w.EndObject();
}

}  // namespace perfbench
}  // namespace rpdbscan
