#ifndef RPDBSCAN_SPATIAL_RTREE_H_
#define RPDBSCAN_SPATIAL_RTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "io/dataset.h"
#include "spatial/mbr.h"

namespace rpdbscan {

/// A bulk-loaded R-tree over float points (Sort-Tile-Recursive packing),
/// the other index family Lemma 5.6 names for candidate-cell lookup.
/// Searched by radius around a point, like KdTree.
///
/// Non-owning over the coordinate buffer; immutable after Build;
/// thread-safe for concurrent queries.
class RTree {
 public:
  RTree() = default;

  /// Builds over `n` points of `dim` coordinates at `data` (row-major).
  /// `fanout` children per internal node / points per leaf.
  void Build(const float* data, size_t n, size_t dim, size_t fanout = 16);

  size_t size() const { return n_; }

  /// Invokes `fn(id, dist2)` for every point within `radius` of `q`
  /// (closed ball).
  template <typename Fn>
  void ForEachInRadius(const float* q, double radius, Fn&& fn) const {
    if (nodes_.empty()) return;
    VisitBall(root_, q, radius * radius, fn);
  }

  /// Convenience: ids within `radius` of `q`.
  std::vector<uint32_t> RadiusSearch(const float* q, double radius) const {
    std::vector<uint32_t> out;
    ForEachInRadius(q, radius,
                    [&out](uint32_t id, double) { out.push_back(id); });
    return out;
  }

  /// Batched form of ForEachInRadius: appends (without clearing) every id
  /// within `radius` of `q` to the caller-owned `*out`, in the same order
  /// the callback form visits them: the cell dictionary's R-tree gather
  /// reuses one hit buffer across sub-dictionaries.
  void CollectInRadius(const float* q, double radius,
                       std::vector<uint32_t>* out) const;

 private:
  struct Node {
    Mbr box{0};
    // Leaf: [begin, end) into perm_. Internal: [begin, end) into child
    // node indices stored in children_.
    uint32_t begin = 0;
    uint32_t end = 0;
    bool leaf = false;
  };

  void CollectBall(uint32_t node_id, const float* q, double r2,
                   std::vector<uint32_t>* out) const;

  template <typename Fn>
  void VisitBall(uint32_t node_id, const float* q, double r2,
                 Fn&& fn) const {
    const Node& node = nodes_[node_id];
    if (node.box.MinDist2(q) > r2) return;
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const uint32_t id = perm_[i];
        const double d2 = DistanceSquared(q, data_ + id * dim_, dim_);
        if (d2 <= r2) fn(id, d2);
      }
      return;
    }
    for (uint32_t i = node.begin; i < node.end; ++i) {
      VisitBall(children_[i], q, r2, fn);
    }
  }

  const float* data_ = nullptr;
  size_t dim_ = 0;
  size_t n_ = 0;
  std::vector<uint32_t> perm_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> children_;
  uint32_t root_ = 0;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SPATIAL_RTREE_H_
