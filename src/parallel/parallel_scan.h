#ifndef RPDBSCAN_PARALLEL_PARALLEL_SCAN_H_
#define RPDBSCAN_PARALLEL_PARALLEL_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace rpdbscan {

/// Replaces v[0..n) by its exclusive prefix sum and returns the total.
/// Integer sums are exact, so the result does not depend on the thread
/// count. Parallel over contiguous chunks when `pool` is given and the
/// input is large enough to amortize two passes: per-chunk sums, a scan
/// over the (few) chunk sums, then per-chunk local scans from their base.
template <typename T>
T ExclusiveScan(T* v, size_t n, ThreadPool* pool) {
  constexpr size_t kMinParallel = 1 << 14;
  if (pool == nullptr || pool->num_threads() <= 1 || n < kMinParallel) {
    T run = 0;
    for (size_t i = 0; i < n; ++i) {
      const T x = v[i];
      v[i] = run;
      run += x;
    }
    return run;
  }
  const size_t num_chunks = pool->num_threads() * 4;
  const size_t len = (n + num_chunks - 1) / num_chunks;
  std::vector<T> base(num_chunks + 1, 0);
  ParallelFor(
      *pool, num_chunks,
      [&](size_t c) {
        const size_t end = (c + 1) * len < n ? (c + 1) * len : n;
        T sum = 0;
        for (size_t i = c * len; i < end; ++i) sum += v[i];
        base[c + 1] = sum;
      },
      /*chunk=*/1);
  for (size_t c = 0; c < num_chunks; ++c) base[c + 1] += base[c];
  ParallelFor(
      *pool, num_chunks,
      [&](size_t c) {
        const size_t end = (c + 1) * len < n ? (c + 1) * len : n;
        T run = base[c];
        for (size_t i = c * len; i < end; ++i) {
          const T x = v[i];
          v[i] = run;
          run += x;
        }
      },
      /*chunk=*/1);
  return base[num_chunks];
}

/// Calls fn(p, local_begin, local_end) for each piece of the global range
/// [begin, end) that falls in part p, where `base` (one entry per part
/// plus the total: an exclusive prefix sum of the part sizes) holds each
/// part's first global index. Lets fixed-size chunks of a concatenation be
/// processed in place, without materializing it.
template <typename Fn>
void ForEachPiece(const std::vector<size_t>& base, size_t begin, size_t end,
                  Fn&& fn) {
  size_t p = static_cast<size_t>(
                 std::upper_bound(base.begin(), base.end(), begin) -
                 base.begin()) -
             1;
  while (begin < end) {
    const size_t piece_end = std::min(end, base[p + 1]);
    if (piece_end > begin) fn(p, begin - base[p], piece_end - base[p]);
    begin = piece_end;
    ++p;
  }
}

}  // namespace rpdbscan

#endif  // RPDBSCAN_PARALLEL_PARALLEL_SCAN_H_
