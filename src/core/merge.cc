#include "core/merge.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <mutex>

#include "graph/disjoint_set.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_scan.h"
#include "util/logging.h"

namespace rpdbscan {
namespace {

// A subgraph during the tournament: knows the types of the cells whose
// owning partitions have been folded into it.
struct TournamentGraph {
  std::vector<std::pair<uint32_t, CellType>> owned;
  std::vector<CellEdge> edges;
};

size_t TotalEdges(const std::vector<TournamentGraph>& graphs) {
  size_t n = 0;
  for (const auto& g : graphs) n += g.edges.size();
  return n;
}

// Merges `b` into `a` (Def. 6.2), then re-types and reduces edges inside
// the merged graph using the type knowledge available to it. `dsu` is the
// global union-find accumulating the spanning forest of full edges,
// guarded by `dsu_mu` when matches of a round run concurrently (their
// lineages are disjoint, so the lock is for memory safety only — the
// outcome is order-independent).
void MergePair(TournamentGraph& a, TournamentGraph&& b, DisjointSet& dsu,
               std::mutex& dsu_mu, std::vector<CellType>& type_of,
               bool reduce_edges) {
  // Def. 6.2: union of vertices; a cell owned by one side promotes the
  // other side's undetermined view. With single ownership there are no
  // core/non-core conflicts; we simply install the known types.
  a.owned.insert(a.owned.end(), b.owned.begin(), b.owned.end());
  a.edges.insert(a.edges.end(),
                 std::make_move_iterator(b.edges.begin()),
                 std::make_move_iterator(b.edges.end()));
  b.owned.clear();
  b.edges.clear();

  // Edge type detection (Sec. 6.1.3) + reduction (Sec. 6.1.4) in one
  // sweep. An edge can be typed only once this merged graph *contains* the
  // successor's owning partition — even though `type_of` is globally
  // filled, resolving earlier would misstate the per-round edge series the
  // paper reports (Fig. 17). Hence the `known` membership check.
  std::unordered_set<uint32_t> known;
  known.reserve(a.owned.size() * 2);
  for (const auto& owned_cell : a.owned) known.insert(owned_cell.first);
  std::vector<CellEdge> kept;
  kept.reserve(a.edges.size());
  for (CellEdge& e : a.edges) {
    if (e.type == EdgeType::kUndetermined) {
      const CellType to_type =
          known.count(e.to) != 0 ? type_of[e.to] : CellType::kUndetermined;
      if (to_type == CellType::kUndetermined) {
        kept.push_back(e);  // successor still unknown: keep for later round
        continue;
      }
      if (to_type == CellType::kCore) {
        e.type = EdgeType::kFull;
        // Full edge: both cells' points share a cluster (Lemma 3.5).
        // Keep the edge only if it extends the spanning forest.
        bool novel;
        {
          std::lock_guard<std::mutex> lock(dsu_mu);
          novel = dsu.Union(e.from, e.to);
        }
        if (novel || !reduce_edges) kept.push_back(e);
        continue;
      }
      e.type = EdgeType::kPartial;
      kept.push_back(e);
      continue;
    }
    // Already typed in an earlier round (full edges are already in the
    // union-find; partial edges just ride along).
    kept.push_back(e);
  }
  a.edges = std::move(kept);
}

// Shared deterministic post-pass of both merge paths: cluster ids from
// first-encounter over ascending core cell ids (any Find whose component
// partition matches yields the same ids), predecessor lists from partial
// edges — sorted ascending so the first-match border walk downstream is
// schedule-independent — and full edges in final-graph order.
template <typename FindFn>
void HarvestClusters(size_t num_cells, const std::vector<CellType>& type_of,
                     FindFn&& find, const std::vector<CellEdge>& final_edges,
                     MergeResult* result) {
  result->core_cluster.assign(num_cells, kNoCluster);
  std::unordered_map<uint32_t, uint32_t> root_to_cluster;
  for (uint32_t cid = 0; cid < num_cells; ++cid) {
    if (type_of[cid] != CellType::kCore) continue;
    const uint32_t root = find(cid);
    const auto it = root_to_cluster
                        .emplace(root, static_cast<uint32_t>(
                                           root_to_cluster.size()))
                        .first;
    result->core_cluster[cid] = it->second;
  }
  result->num_clusters = root_to_cluster.size();

  result->predecessors.assign(num_cells, {});
  for (const CellEdge& e : final_edges) {
    if (e.type == EdgeType::kPartial) {
      result->predecessors[e.to].push_back(e.from);
    } else if (e.type == EdgeType::kFull) {
      result->full_edges.push_back(e);
    }
  }
  for (std::vector<uint32_t>& preds : result->predecessors) {
    std::sort(preds.begin(), preds.end());
  }
}

// The edge-parallel path (MergeOptions::parallel_unions): the tournament
// exists to propagate type knowledge pair by pair, but the global type
// table is complete before any merging starts — so every edge can be
// typed independently, and full edges can race into a lock-free
// union-find. One pass over the subgraphs' edge arrays, in place and
// chunked over a prefix sum of their sizes, replaces O(log k) rounds of
// concatenate + hash-set rebuilds; per-worker kept lists are
// concatenated and sorted by (from, to) (unique: each edge is emitted by
// its single owning partition) so the final edge list is deterministic
// even though the union schedule is not.
MergeResult MergeSubgraphsParallel(std::vector<CellSubgraph> subgraphs,
                                   size_t num_cells,
                                   const MergeOptions& opts) {
  MergeResult result;
  std::vector<CellType> type_of(num_cells, CellType::kUndetermined);
  std::vector<size_t> edge_base(subgraphs.size() + 1, 0);
  for (size_t g = 0; g < subgraphs.size(); ++g) {
    for (const auto& [cid, type] : subgraphs[g].owned) {
      RPDBSCAN_DCHECK(type_of[cid] == CellType::kUndetermined)
          << "cell " << cid << " owned by two partitions";
      type_of[cid] = type;
    }
    edge_base[g + 1] = edge_base[g] + subgraphs[g].edges.size();
  }
  const size_t total_edges = edge_base.back();
  result.edges_per_round.push_back(total_edges);

  ConcurrentDisjointSet dsu(num_cells);
  const size_t num_workers =
      opts.pool != nullptr && opts.pool->num_threads() > 0
          ? opts.pool->num_threads()
          : 1;
  std::vector<std::vector<CellEdge>> kept(num_workers);
  auto type_edge = [&](size_t worker, CellEdge e) {
    if (e.type == EdgeType::kUndetermined) {
      const CellType to_type = type_of[e.to];
      if (to_type == CellType::kCore) {
        e.type = EdgeType::kFull;
        // Full edge (Lemma 3.5): survives only if its union extends the
        // spanning forest. Which unions succeed is schedule-dependent,
        // but their count — and the component partition — is not.
        const bool novel = dsu.Union(e.from, e.to);
        if (!novel && opts.reduce_edges) return;
      } else if (to_type == CellType::kNonCore) {
        e.type = EdgeType::kPartial;
      }
      // An unowned successor stays untyped, exactly as it would survive
      // every tournament round.
    }
    kept[worker].push_back(e);
  };
  constexpr size_t kChunk = 4096;
  auto type_chunk = [&](size_t worker, size_t c) {
    ForEachPiece(edge_base, c * kChunk,
                 std::min(total_edges, (c + 1) * kChunk),
                 [&](size_t g, size_t lo, size_t hi) {
                   const CellEdge* edges = subgraphs[g].edges.data();
                   for (size_t i = lo; i < hi; ++i) {
                     type_edge(worker, edges[i]);
                   }
                 });
  };
  const size_t num_chunks = (total_edges + kChunk - 1) / kChunk;
  if (opts.pool != nullptr && num_workers > 1) {
    ParallelForWorkers(*opts.pool, num_chunks, type_chunk, /*chunk=*/1);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) type_chunk(0, c);
  }
  std::vector<CellSubgraph>().swap(subgraphs);

  std::vector<CellEdge> final_edges;
  size_t kept_total = 0;
  for (const std::vector<CellEdge>& k : kept) kept_total += k.size();
  final_edges.reserve(kept_total);
  for (std::vector<CellEdge>& k : kept) {
    final_edges.insert(final_edges.end(), k.begin(), k.end());
    std::vector<CellEdge>().swap(k);
  }
  std::sort(final_edges.begin(), final_edges.end(),
            [](const CellEdge& a, const CellEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  result.edges_per_round.push_back(final_edges.size());

  result.edges_reduced = opts.reduce_edges;
  HarvestClusters(
      num_cells, type_of, [&dsu](uint32_t cid) { return dsu.Find(cid); },
      final_edges, &result);
  return result;
}

}  // namespace

MergeResult MergeSubgraphs(std::vector<CellSubgraph> subgraphs,
                           size_t num_cells, const MergeOptions& opts) {
  if (opts.parallel_unions) {
    return MergeSubgraphsParallel(std::move(subgraphs), num_cells, opts);
  }
  MergeResult result;
  // Global type table, filled as each subgraph's owned list arrives.
  std::vector<CellType> type_of(num_cells, CellType::kUndetermined);
  std::vector<TournamentGraph> round;
  round.reserve(subgraphs.size());
  for (CellSubgraph& sg : subgraphs) {
    TournamentGraph g;
    g.owned = std::move(sg.owned);
    g.edges = std::move(sg.edges);
    for (const auto& [cid, type] : g.owned) {
      RPDBSCAN_DCHECK(type_of[cid] == CellType::kUndetermined)
          << "cell " << cid << " owned by two partitions";
      type_of[cid] = type;
    }
    round.push_back(std::move(g));
  }
  subgraphs.clear();

  DisjointSet dsu(num_cells);
  std::mutex dsu_mu;
  result.edges_per_round.push_back(TotalEdges(round));  // round 0

  // Tournament (Sec. 6.1.1): pair up subgraphs each round until one is
  // left; the matches of one round are independent and run in parallel
  // when a pool is provided. An odd graph gets a bye.
  while (round.size() > 1) {
    const size_t matches = round.size() / 2;
    auto run_match = [&](size_t m) {
      MergePair(round[2 * m], std::move(round[2 * m + 1]), dsu, dsu_mu,
                type_of, opts.reduce_edges);
    };
    if (opts.pool != nullptr && matches > 1) {
      ParallelFor(*opts.pool, matches, run_match, /*chunk=*/1);
    } else {
      for (size_t m = 0; m < matches; ++m) run_match(m);
    }
    std::vector<TournamentGraph> next;
    next.reserve(matches + 1);
    for (size_t m = 0; m < matches; ++m) {
      next.push_back(std::move(round[2 * m]));
    }
    if (round.size() % 2 == 1) next.push_back(std::move(round.back()));
    round = std::move(next);
    result.edges_per_round.push_back(TotalEdges(round));
  }

  // Single-partition runs never enter the loop; resolve their edges with
  // one self-merge so the global graph is fully typed.
  if (round.size() == 1 && !round[0].edges.empty()) {
    MergePair(round[0], TournamentGraph{}, dsu, dsu_mu, type_of,
              opts.reduce_edges);
    if (result.edges_per_round.size() == 1) {
      result.edges_per_round.push_back(round[0].edges.size());
    }
  }

  // Harvest the global graph: cluster ids from the spanning forest and
  // predecessor lists from partial edges.
  result.edges_reduced = opts.reduce_edges;
  static const std::vector<CellEdge> kNoEdges;
  HarvestClusters(
      num_cells, type_of, [&dsu](uint32_t cid) { return dsu.Find(cid); },
      round.empty() ? kNoEdges : round[0].edges, &result);
  return result;
}

}  // namespace rpdbscan
