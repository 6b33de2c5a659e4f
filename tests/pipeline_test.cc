// The shared pipeline stages (core/pipeline.h): each engine toggle maps
// onto exactly its stage option, and the three drivers built from those
// stages — RunRpDbscan, a one-rung BuildClusterHierarchy and a stream's
// epoch 0 — give bit-identical labels for the defaults and every toggle.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rp_dbscan.h"
#include "hierarchy/eps_ladder.h"
#include "stream/incremental.h"
#include "synth/generators.h"

namespace rpdbscan {
namespace {

/// Every field of the three stage option structs the engine set maps
/// onto, plus the sender build, by name.
std::map<std::string, double> StageFields(const EngineOptions& e) {
  const CellDictionaryOptions d = EngineDictionaryOptions(e);
  const Phase2Options p = EnginePhase2Options(e);
  const MergeOptions m = EngineMergeOptions(e, nullptr);
  return {
      {"dict.max_cells_per_subdict",
       static_cast<double>(d.max_cells_per_subdict)},
      {"dict.defragment", d.defragment},
      {"dict.enable_skipping", d.enable_skipping},
      {"dict.index", static_cast<double>(d.index)},
      {"dict.build_stencil", d.build_stencil},
      {"dict.max_stencil_offsets", static_cast<double>(d.max_stencil_offsets)},
      {"dict.stencil_eps_scale", d.stencil_eps_scale},
      {"dict.quantized", d.quantized},
      {"phase2.batched_queries", p.batched_queries},
      {"phase2.stencil_queries", p.stencil_queries},
      {"phase2.scalar_kernels", p.scalar_kernels},
      {"phase2.quantized", p.quantized},
      {"phase2.query_eps", p.query_eps},
      {"phase2.force_probe", p.force_probe},
      {"phase2.level_stencil", p.level_stencil != nullptr},
      {"phase2.seed_point_core", p.seed_point_core != nullptr},
      {"phase2.core_cell_mask", p.core_cell_mask != nullptr},
      {"merge.reduce_edges", m.reduce_edges},
      {"merge.parallel_unions", m.parallel_unions},
      {"sender_build", static_cast<double>(SenderBuild(e))},
  };
}

std::set<std::string> Changed(const EngineOptions& flipped) {
  const std::map<std::string, double> base = StageFields(EngineOptions());
  std::set<std::string> changed;
  for (const auto& [name, value] : StageFields(flipped)) {
    if (base.at(name) != value) changed.insert(name);
  }
  return changed;
}

TEST(PipelineTest, EachEngineFieldMapsOntoExactlyItsStageOption) {
  struct Flip {
    const char* field;
    std::function<void(EngineOptions&)> apply;
    std::set<std::string> want;
  };
  const std::vector<Flip> flips = {
      {"batched_queries", [](EngineOptions& e) { e.batched_queries = false; },
       {"dict.build_stencil", "phase2.batched_queries"}},
      {"stencil_queries", [](EngineOptions& e) { e.stencil_queries = false; },
       {"dict.build_stencil", "phase2.stencil_queries"}},
      {"scalar_kernels", [](EngineOptions& e) { e.scalar_kernels = true; },
       {"phase2.scalar_kernels"}},
      {"quantized", [](EngineOptions& e) { e.quantized = true; },
       {"dict.quantized", "phase2.quantized"}},
      {"sequential_merge", [](EngineOptions& e) { e.sequential_merge = true; },
       {"merge.parallel_unions"}},
      {"reduce_edges", [](EngineOptions& e) { e.reduce_edges = false; },
       {"merge.reduce_edges"}},
      {"simulate_broadcast",
       [](EngineOptions& e) { e.simulate_broadcast = false; },
       {"sender_build"}},
      // Phase I and core-sampling knobs reach no stage option struct.
      {"rho", [](EngineOptions& e) { e.rho = 0.05; }, {}},
      {"num_partitions", [](EngineOptions& e) { e.num_partitions = 3; }, {}},
      {"num_threads", [](EngineOptions& e) { e.num_threads = 3; }, {}},
      {"seed", [](EngineOptions& e) { e.seed = 99; }, {}},
      {"sorted_phase1", [](EngineOptions& e) { e.sorted_phase1 = false; }, {}},
      {"sampled_core_fraction",
       [](EngineOptions& e) { e.sampled_core_fraction = 0.5; }, {}},
      {"core_sample_seed", [](EngineOptions& e) { e.core_sample_seed = 1; },
       {}},
  };
  for (const Flip& f : flips) {
    SCOPED_TRACE(f.field);
    EngineOptions e;
    f.apply(e);
    EXPECT_EQ(Changed(e), f.want);
  }
}

TEST(PipelineTest, RunDictionaryOptionsAddsTheDictionaryOnlyKnobs) {
  RpDbscanOptions o;
  o.max_cells_per_subdict = 64;
  o.defragment_dictionary = false;
  o.subdictionary_skipping = false;
  o.use_rtree_index = true;
  o.quantized = true;
  const CellDictionaryOptions d = RunDictionaryOptions(o);
  EXPECT_EQ(d.max_cells_per_subdict, 64u);
  EXPECT_FALSE(d.defragment);
  EXPECT_FALSE(d.enable_skipping);
  EXPECT_EQ(d.index, CandidateIndex::kRTree);
  EXPECT_TRUE(d.quantized);
  EXPECT_EQ(d.stencil_eps_scale, 1.0);
}

TEST(PipelineTest, ResourcesResolveAutoDefaults) {
  EngineOptions e;
  e.num_threads = 3;
  EXPECT_EQ(ResolveResources(e).num_threads, 3u);
  EXPECT_EQ(ResolveResources(e).num_partitions, 12u);
  e.num_partitions = 5;
  EXPECT_EQ(ResolveResources(e).num_partitions, 5u);
  e.num_threads = 0;
  EXPECT_GE(ResolveResources(e).num_threads, 1u);
}

TEST(PipelineTest, SampledCoreMaskIsEmptyForTheExactRun) {
  const Dataset data = synth::Blobs(500, 3, 1.0, 4);
  auto geom = GridGeometry::Create(data.dim(), 1.0, 0.01);
  ASSERT_TRUE(geom.ok());
  ThreadPool pool(2);
  auto cells = CellSet::Build(data, *geom, 4, 7, &pool, true);
  ASSERT_TRUE(cells.ok());
  EngineOptions e;
  EXPECT_TRUE(SampledCoreMask(*cells, e).empty());
  e.sampled_core_fraction = 0.5;
  const std::vector<uint8_t> mask = SampledCoreMask(*cells, e);
  ASSERT_EQ(mask.size(), cells->num_cells());
  size_t kept = 0;
  for (const uint8_t m : mask) kept += m;
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, mask.size());
}

/// RunRpDbscan, a one-rung ladder and a stream's epoch 0 over the same
/// options must agree label for label.
void ExpectDriversAgree(const Dataset& data, const RpDbscanOptions& o) {
  auto run = RunRpDbscan(data, o);
  ASSERT_TRUE(run.ok()) << run.status();

  HierarchyOptions h;
  static_cast<EngineOptions&>(h) = o;
  h.eps_levels = {o.eps};
  h.min_pts_levels = {o.min_pts};
  auto ladder = BuildClusterHierarchy(data, h);
  ASSERT_TRUE(ladder.ok()) << ladder.status();
  ASSERT_EQ(ladder->levels.size(), 1u);
  EXPECT_EQ(ladder->levels[0].labels, run->labels);
  EXPECT_EQ(ladder->levels[0].num_clusters, run->stats.num_clusters);

  auto stream = StreamClusterer::Create(data, o);
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto epoch = stream->PublishEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(epoch->labels, run->labels);
  EXPECT_EQ(epoch->stats.num_clusters, run->stats.num_clusters);
  EXPECT_EQ(epoch->stats.num_noise_points, run->stats.num_noise_points);
}

TEST(PipelineTest, DriversAgreeForDefaultsAndEveryToggle) {
  const Dataset data = synth::Blobs(2000, 5, 1.2, 11);
  RpDbscanOptions base;
  base.eps = 1.0;
  base.min_pts = 12;
  base.num_threads = 2;
  base.num_partitions = 6;
  const std::vector<std::pair<const char*,
                              std::function<void(RpDbscanOptions&)>>>
      toggles = {
          {"defaults", [](RpDbscanOptions&) {}},
          {"sorted_phase1",
           [](RpDbscanOptions& o) { o.sorted_phase1 = false; }},
          {"stencil_queries",
           [](RpDbscanOptions& o) { o.stencil_queries = false; }},
          {"batched_queries",
           [](RpDbscanOptions& o) { o.batched_queries = false; }},
          {"scalar_kernels",
           [](RpDbscanOptions& o) { o.scalar_kernels = true; }},
          {"sequential_merge",
           [](RpDbscanOptions& o) { o.sequential_merge = true; }},
          {"simulate_broadcast",
           [](RpDbscanOptions& o) { o.simulate_broadcast = false; }},
          {"reduce_edges", [](RpDbscanOptions& o) { o.reduce_edges = false; }},
      };
  auto reference = RunRpDbscan(data, base);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GT(reference->stats.num_clusters, 1u);
  for (const auto& [name, apply] : toggles) {
    SCOPED_TRACE(name);
    RpDbscanOptions o = base;
    apply(o);
    ExpectDriversAgree(data, o);
    // Every toggle is an engine choice, not a semantic one.
    auto run = RunRpDbscan(data, o);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->labels, reference->labels);
  }
}

}  // namespace
}  // namespace rpdbscan
