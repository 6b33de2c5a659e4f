#ifndef RPDBSCAN_SPATIAL_BOX_TREE_H_
#define RPDBSCAN_SPATIAL_BOX_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rpdbscan {

/// max(x, +0.0), branch-free: one maxsd where SSE2 exists. Returns +0.0
/// for every x <= 0 (signed zeros included) and x otherwise, in both
/// forms.
inline double PositivePart(double x) {
#if defined(__SSE2__)
  return _mm_cvtsd_f64(_mm_max_sd(_mm_set_sd(x), _mm_setzero_pd()));
#else
  return x > 0.0 ? x : 0.0;
#endif
}

/// Squared distance bounds between box A = [a_lo, a_hi] and box
/// B = [b_lo, b_hi] (dim floats per corner), computed in double: `min2`
/// bounds from below and `max2` from above the squared distance of every
/// pair of one point of A and one point of B. A point is the degenerate box
/// a_lo == a_hi.
///
/// Both bounds are monotone in B under round-to-nearest: growing B can
/// only shrink each per-dimension gap and grow each per-dimension far
/// extent, and rounding preserves those orders term by term and through
/// the fixed-order sum. So a verdict drawn from a box that encloses many
/// smaller boxes (min2 above a threshold, max2 below one) holds for each
/// enclosed box computed with this same function — what lets BoxTree
/// classify a whole subtree at once.
inline void MbrPairDistBounds(const float* a_lo, const float* a_hi,
                              const float* b_lo, const float* b_hi,
                              size_t dim, double* min2, double* max2) {
  double mn = 0.0;
  double mx = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double lo = b_lo[d];
    const double hi = b_hi[d];
    const double alo = a_lo[d];
    const double ahi = a_hi[d];
    // For valid boxes (lo <= hi) at most one side has a positive gap, so
    // this is "alo > hi ? alo - hi : lo > ahi ? lo - ahi : 0" value for
    // value, without its data-dependent branches: on boxes that straddle
    // each other dimension by dimension those mispredict about half the
    // time, which made the 13-d bound several times slower.
    const double gap = PositivePart(std::max(alo - hi, lo - ahi));
    mn += gap * gap;
    const double far = std::max(ahi - lo, hi - alo);
    mx += far * far;
  }
  *min2 = mn;
  *max2 = mx;
}

/// How a query judges one tree node's bounding box.
enum class BoxVerdict : uint8_t {
  kDisjoint,   // no item under the node can match: prune the subtree
  kContained,  // every item under the node matches whole: take it at once
  kPartial,    // undecided: descend (or test a leaf's items one by one)
};

/// A bulk-loaded kd-tree over axis-aligned boxes, each carrying a weight.
/// Every node stores the bounding box of the items under it and their
/// summed weight, and covers a contiguous run of perm(), so a query that
/// decides a node as a whole (BoxVerdict) handles its entire subtree in
/// one step. Splits on the widest spread of the box centres at the median;
/// leaves hold up to `leaf_size` items.
///
/// Keeps its own node boxes, node weights and permutation and no pointer
/// into the caller's arrays, so it stays valid when those move or die.
/// Immutable after Build; thread-safe for concurrent walks.
class BoxTree {
 public:
  BoxTree() = default;

  /// Builds over `n` boxes at `boxes` (2 * dim floats each: lo then hi)
  /// with per-box `weights`.
  void Build(const float* boxes, const uint32_t* weights, size_t n,
             size_t dim, size_t leaf_size = 4);

  size_t size() const { return perm_.size(); }

  /// Item indices in tree order: every node's items are one run of it.
  const std::vector<uint32_t>& perm() const { return perm_; }

  /// Depth-first walk from the root. `classify(lo, hi)` judges each node's
  /// box and returns a BoxVerdict: a disjoint node is pruned, a contained
  /// node calls `take(begin, end, weight)` with its run [begin, end) of
  /// perm() positions and its summed weight, a partial internal node
  /// descends (left child first), and a partial leaf calls `each(item)`
  /// for each of its items in perm() order.
  template <typename Classify, typename Take, typename Each>
  void Walk(Classify&& classify, Take&& take, Each&& each) const {
    if (nodes_.empty()) return;
    // Median splits halve the run every level, so the depth stays below
    // log2(n) + 2 <= 34 for 32-bit item counts; each iteration pops one
    // node and pushes at most its two children.
    uint32_t stack[72];
    size_t top = 0;
    stack[top++] = 0;
    while (top > 0) {
      const uint32_t id = stack[--top];
      const Node& node = nodes_[id];
      const float* lo =
          node_boxes_.data() + static_cast<size_t>(id) * 2 * dim_;
      const BoxVerdict v = classify(lo, lo + dim_);
      if (v == BoxVerdict::kDisjoint) continue;
      if (v == BoxVerdict::kContained) {
        take(static_cast<size_t>(node.begin), static_cast<size_t>(node.end),
             node.weight);
        continue;
      }
      if (node.right == 0) {
        for (uint32_t k = node.begin; k < node.end; ++k) each(perm_[k]);
        continue;
      }
      // Preorder layout: the left child follows its parent. Push the right
      // child first so the left subtree drains first.
      stack[top++] = node.right;
      stack[top++] = id + 1;
    }
  }

 private:
  struct Node {
    uint32_t begin = 0;  // run of perm_ covered by the node
    uint32_t end = 0;
    uint32_t right = 0;  // right child; 0 marks a leaf (the root is 0)
    uint64_t weight = 0;
  };

  uint32_t BuildRange(const float* boxes, const uint32_t* weights,
                      const float* centers, uint32_t begin, uint32_t end);

  size_t dim_ = 0;
  size_t leaf_size_ = 4;
  std::vector<uint32_t> perm_;
  std::vector<Node> nodes_;
  std::vector<float> node_boxes_;  // 2 * dim_ floats per node: lo then hi
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_SPATIAL_BOX_TREE_H_
