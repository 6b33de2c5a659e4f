#ifndef RPDBSCAN_SPATIAL_KDTREE_H_
#define RPDBSCAN_SPATIAL_KDTREE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "io/dataset.h"

namespace rpdbscan {

/// A bulk-loaded kd-tree over float points with runtime dimensionality.
///
/// Exact eps-region and kNN queries for the DBSCAN baselines, the
/// auditors and the k-distance diagnostic. (Candidate-cell lookup inside
/// a sub-dictionary, Lemma 5.6, uses the kd-tree over cell boxes in
/// spatial/box_tree.h.)
///
/// The tree does not own the coordinate buffer; the caller keeps it alive.
/// Immutable after Build. Thread-safe for concurrent queries.
class KdTree {
 public:
  KdTree() = default;

  /// Builds over `n` points of `dim` coordinates at `data` (row-major).
  /// Splits on the widest dimension at the median; leaves hold up to
  /// `leaf_size` points.
  void Build(const float* data, size_t n, size_t dim, size_t leaf_size = 16);

  size_t size() const { return perm_.size(); }
  bool built() const { return !nodes_.empty() || perm_.empty(); }

  /// Invokes `fn(id, dist2)` for every point within `radius` of `q`
  /// (closed ball, squared distances compared in double).
  template <typename Fn>
  void ForEachInRadius(const float* q, double radius, Fn&& fn) const {
    if (perm_.empty()) return;
    VisitBall(0, q, radius, radius * radius, fn);
  }

  /// Convenience: collects ids within `radius` of `q`.
  std::vector<uint32_t> RadiusSearch(const float* q, double radius) const {
    std::vector<uint32_t> out;
    ForEachInRadius(q, radius,
                    [&out](uint32_t id, double) { out.push_back(id); });
    return out;
  }

  /// Counts points within `radius` of `q`, stopping early once the count
  /// reaches `cap` (used by DBSCAN core tests where only ">= minPts"
  /// matters). A `cap` of 0 means no early exit.
  size_t CountInRadius(const float* q, double radius, size_t cap = 0) const;

  /// The `k` nearest neighbors of `q` as (dist2, id) pairs sorted by
  /// ascending distance (fewer if the tree holds fewer points). Used by
  /// the k-distance diagnostic for eps selection.
  std::vector<std::pair<double, uint32_t>> KNearest(const float* q,
                                                    size_t k) const;

 private:
  struct Node {
    // Internal node: children indices; leaf: begin/end into perm_.
    uint32_t left = 0;
    uint32_t right = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
    float split_val = 0;
    uint16_t split_dim = 0;
    bool leaf = false;
  };

  uint32_t BuildRange(uint32_t begin, uint32_t end);

  template <typename Fn>
  void VisitBall(uint32_t node_id, const float* q, double radius, double r2,
                 Fn&& fn) const {
    const Node& node = nodes_[node_id];
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const uint32_t id = perm_[i];
        const double d2 = DistanceSquared(q, data_ + id * dim_, dim_);
        if (d2 <= r2) fn(id, d2);
      }
      return;
    }
    const double delta =
        static_cast<double>(q[node.split_dim]) - node.split_val;
    const uint32_t near = delta <= 0 ? node.left : node.right;
    const uint32_t far = delta <= 0 ? node.right : node.left;
    VisitBall(near, q, radius, r2, fn);
    if (delta * delta <= r2) VisitBall(far, q, radius, r2, fn);
  }

  const float* data_ = nullptr;
  size_t dim_ = 0;
  size_t leaf_size_ = 16;
  std::vector<uint32_t> perm_;
  std::vector<Node> nodes_;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SPATIAL_KDTREE_H_
