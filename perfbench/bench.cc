#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace rpdbscan {
namespace perfbench {

bool OpLedger::Record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(what);
  }
  return ok;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t HashLabels(const Labels& labels, uint64_t h) {
  for (const int64_t label : labels) {
    uint64_t x = static_cast<uint64_t>(label);
    for (int b = 0; b < 8; ++b) {
      h ^= x & 0xff;
      h *= 0x100000001b3ull;
      x >>= 8;
    }
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
}  // namespace rpdbscan
