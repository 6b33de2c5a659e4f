#include "spatial/box_tree.h"

#include <numeric>

namespace rpdbscan {

void BoxTree::Build(const float* boxes, const uint32_t* weights, size_t n,
                    size_t dim, size_t leaf_size) {
  dim_ = dim;
  leaf_size_ = leaf_size == 0 ? 1 : leaf_size;
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), 0u);
  nodes_.clear();
  node_boxes_.clear();
  if (n == 0) return;
  std::vector<float> centers(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const float* box = boxes + i * 2 * dim;
    for (size_t d = 0; d < dim; ++d) {
      centers[i * dim + d] = 0.5f * (box[d] + box[dim + d]);
    }
  }
  const size_t max_nodes = 2 * ((n + leaf_size_ - 1) / leaf_size_) + 1;
  nodes_.reserve(max_nodes);
  node_boxes_.reserve(max_nodes * 2 * dim);
  BuildRange(boxes, weights, centers.data(), 0, static_cast<uint32_t>(n));
}

uint32_t BoxTree::BuildRange(const float* boxes, const uint32_t* weights,
                             const float* centers, uint32_t begin,
                             uint32_t end) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  node_boxes_.resize(node_boxes_.size() + 2 * dim_);
  // The node's box is the union of its items' boxes (exact: min and max
  // of floats), its weight their sum.
  {
    float* lo = node_boxes_.data() + static_cast<size_t>(id) * 2 * dim_;
    float* hi = lo + dim_;
    const float* first = boxes + static_cast<size_t>(perm_[begin]) * 2 * dim_;
    std::copy(first, first + 2 * dim_, lo);
    uint64_t weight = 0;
    for (uint32_t k = begin; k < end; ++k) {
      const float* box = boxes + static_cast<size_t>(perm_[k]) * 2 * dim_;
      for (size_t d = 0; d < dim_; ++d) {
        lo[d] = std::min(lo[d], box[d]);
        hi[d] = std::max(hi[d], box[dim_ + d]);
      }
      weight += weights[perm_[k]];
    }
    nodes_[id].begin = begin;
    nodes_[id].end = end;
    nodes_[id].weight = weight;
  }
  if (end - begin <= leaf_size_) return id;

  // Split on the widest spread of the item centres, at the median.
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dim_; ++d) {
    float lo = centers[static_cast<size_t>(perm_[begin]) * dim_ + d];
    float hi = lo;
    for (uint32_t k = begin + 1; k < end; ++k) {
      const float v = centers[static_cast<size_t>(perm_[k]) * dim_ + d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double spread = static_cast<double>(hi) - lo;
    if (spread > best_spread) {
      best_spread = spread;
      best_dim = d;
    }
  }
  const uint32_t mid = begin + (end - begin) / 2;
  const size_t dim = dim_;
  std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                   perm_.begin() + end,
                   [centers, dim, best_dim](uint32_t a, uint32_t b) {
                     return centers[static_cast<size_t>(a) * dim + best_dim] <
                            centers[static_cast<size_t>(b) * dim + best_dim];
                   });
  BuildRange(boxes, weights, centers, begin, mid);  // preorder: id + 1
  const uint32_t right = BuildRange(boxes, weights, centers, mid, end);
  nodes_[id].right = right;
  return id;
}

}  // namespace rpdbscan
