#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "core/rp_dbscan.h"
#include "hierarchy/eps_ladder.h"
#include "parallel/thread_pool.h"
#include "pipeline.h"
#include "serve/label_server.h"
#include "serve/snapshot.h"
#include "stream/epoch_registry.h"
#include "stream/incremental.h"
#include "synth/generators.h"
#include "trace.h"
#include "util/random.h"

namespace rpdbscan {
namespace perfbench {
namespace {

constexpr size_t kMinPts = 20;
constexpr double kRho = 0.01;
constexpr size_t kThreads = 4;
// The serving client classifies on its own thread. A 1,024-query batch takes
// about a millisecond on the 2-d and 3-d models; split over 4 pool threads,
// each of its parallel stages waits for the slowest thread, and on a shared
// host that wait made the served rate swing by 2x between runs.
constexpr size_t kServeThreads = 1;
constexpr size_t kPartitions = 16;
// Share of a run's timed operations spent on the 1-thread baseline.
constexpr double kShare1t = 0.4;
// Set-ups per run. Generation alone takes 15-80 ms, and single timings that
// short swing by 50% on a shared host, so setup_s is a median of many.
constexpr int kSetupReps = 9;

enum class Kind { kBatch, kStream, kLadder };

/// One workload: generator, radius (or ladder), sizes, and the audit level
/// its reference run can afford.
struct WorkloadDef {
  const char* name;
  Kind kind;
  Dataset (*generate)(size_t, uint64_t);
  uint64_t default_seed;  // the seed bench/bench_common.h uses
  std::vector<double> eps;  // one radius, or the ladder's rungs
  size_t points;            // training points (stream: seed epoch)
  size_t smoke_points;      // the same for --smoke
  size_t held_out;          // query pool from the same generator
  size_t epochs;            // stream only
  size_t epoch_points;      // stream only
  // ClassifyBatch requests after each publish: a fixed count (the stream's
  // epochs), or as many as start in a time window (the batch workloads,
  // whose 1,024-query batches take 2 ms on the 2-d model but 400 ms on the
  // 13-d one).
  size_t batches_per_publish;
  double serve_seconds;
  AuditLevel reference_audit;
};

/// Sizes are chosen so that a 30-second run holds at least three 1-thread
/// calls: a median of one or two 10-second calls swung by 25% between runs
/// on a shared host.
const std::vector<WorkloadDef>& Defs() {
  static const std::vector<WorkloadDef> defs = {
      // A full audit of the 13-d run recounts every density through the
      // kd-tree, which costs more than the timed calls; the cheap
      // structural audit is affordable.
      {"tera13d-50k", Kind::kBatch, synth::TeraLike, 104, {40.0}, 50000,
       5000, 45000, 0, 0, 0, 0.5, AuditLevel::kCheap},
      {"stream-serve-geolife", Kind::kStream, synth::GeoLifeLike, 101, {2.0},
       140000, 7000, 50000, 40, 250, 24, 0, AuditLevel::kFull},
      {"ladder-osm2d-100k", Kind::kLadder, synth::OsmLike, 103,
       {0.15, 0.2, 0.3, 0.45, 0.6, 0.9, 1.2}, 100000, 20000, 45000, 0, 0,
       0, 0.25, AuditLevel::kFull},
  };
  return defs;
}

/// Smoke runs keep the structure and shrink every size.
WorkloadDef Smoke(WorkloadDef def) {
  def.points = def.smoke_points;
  def.held_out = 3000;
  if (def.epochs > 0) {
    def.epochs = 6;
    def.epoch_points = 50;
  }
  if (def.batches_per_publish > 0) def.batches_per_publish = 4;
  if (def.serve_seconds > 0) def.serve_seconds = 0.05;
  return def;
}

struct Sizes {
  size_t batch_queries = 1024;
  size_t distinct_batches = 48;
};

// ---------------------------------------------------------------------------
// Samples a run collects; the metric emitters below read them.
// ---------------------------------------------------------------------------

struct HierarchySummary {
  double build_s = 0;
  double levels = 0;
  double phase1_s = 0;
  double dictionary_s = 0;
  double broadcast_s = 0;
  double phase2_s = 0;
  double merge_s = 0;
  double label_s = 0;
  double clusters = 0;
  double core_cells = 0;
  double noise_points = 0;
  double containment_violations = 0;
};

struct Samples {
  std::vector<double> setup_s;
  std::vector<double> cluster_s;
  std::vector<double> cluster_1t_s;
  std::vector<double> visible_s;
  std::vector<double> batch_s;
  uint64_t queries = 0;
  std::vector<double> window_qps;  // one per serving window
  ServeStats serve;
  std::vector<double> registry_publish_s;
  std::vector<double> ingest_s;
  std::vector<double> publish_epoch_s;
  std::vector<double> dirty_cells;
  std::vector<double> reclustered_ratio;
  // Traced runs only.
  std::vector<double> untraced_s;
  std::vector<DecomposedRun> decomposed_4t;
  DecomposedRun decomposed_2t;
  DecomposedRun decomposed_1t;
  std::vector<HierarchySummary> hierarchy;
};

/// Everything one run of one workload shares.
struct Context {
  const RunConfig& cfg;
  WorkloadDef def;
  Sizes sizes;
  Tracer* tracer;  // null in the end-to-end run
  RunOutput* out;
  Samples s{};
  Clock::time_point start = Clock::now();  // of the measured part
  bool injection_used = false;

  OpLedger& ledger() { return out->ledger; }
  bool traced() const { return tracer != nullptr; }
  double Elapsed() const { return SecondsSince(start); }

  /// True exactly once per run, for the first timed clustering call, when
  /// `kind` is the configured fault.
  bool TakeInjection(Inject kind) {
    if (injection_used || cfg.inject != kind) return false;
    injection_used = true;
    return true;
  }
};

/// The input of a run: training points, query batches (90% held-out
/// points of the same generator, 10% uniform over the training bounding
/// box, so the cell-miss path runs) and, for the stream, the points the
/// epochs ingest.
///
/// The generator always runs with the workload's default seed, so the data
/// layout (component means, roads, cities) is the same in every run, and
/// one draw covers all roles plus 25% spare points. `--seed` picks which
/// points play which role: seed 0 keeps generation order, so the training
/// set is exactly Generator(n, default seed); other seeds shuffle the draw
/// first. Runs then differ in their points but not in the shape of the
/// work, which a new layout would change by ±30%.
struct Inputs {
  Dataset train{1};
  std::vector<Dataset> ingest;
  std::vector<Dataset> query_batches;
};

Inputs MakeInputs(const Context& c) {
  const WorkloadDef& d = c.def;
  const size_t streamed = d.epochs * d.epoch_points;
  const size_t needed = d.points + streamed + d.held_out;
  const Dataset all = d.generate(needed + d.points / 4, d.default_seed);
  std::vector<uint32_t> order(all.size());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(Mix64(d.default_seed ^ c.cfg.seed));
  if (c.cfg.seed != 0) {
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
  }
  auto point = [&](size_t i) { return all.point(order[i]); };

  const size_t dim = all.dim();
  Inputs in;
  in.train = Dataset(dim);
  in.train.Reserve(d.points);
  for (size_t i = 0; i < d.points; ++i) in.train.Append(point(i));
  for (size_t e = 0; e < d.epochs; ++e) {
    Dataset batch(dim);
    batch.Reserve(d.epoch_points);
    for (size_t i = 0; i < d.epoch_points; ++i) {
      batch.Append(point(d.points + e * d.epoch_points + i));
    }
    in.ingest.push_back(std::move(batch));
  }
  std::vector<float> lo(dim, std::numeric_limits<float>::max());
  std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
  for (size_t i = 0; i < in.train.size(); ++i) {
    const float* p = in.train.point(i);
    for (size_t k = 0; k < dim; ++k) {
      lo[k] = std::min(lo[k], p[k]);
      hi[k] = std::max(hi[k], p[k]);
    }
  }
  const size_t held_base = d.points + streamed;
  std::vector<float> q(dim);
  size_t next_held = 0;
  for (size_t b = 0; b < c.sizes.distinct_batches; ++b) {
    Dataset batch(dim);
    batch.Reserve(c.sizes.batch_queries);
    for (size_t i = 0; i < c.sizes.batch_queries; ++i) {
      if ((b * c.sizes.batch_queries + i) % 10 == 9) {
        for (size_t k = 0; k < dim; ++k) {
          q[k] = static_cast<float>(rng.UniformDouble(lo[k], hi[k]));
        }
        batch.Append(q.data());
      } else {
        batch.Append(point(held_base + next_held));
        next_held = (next_held + 1) % d.held_out;
      }
    }
    in.query_batches.push_back(std::move(batch));
  }
  return in;
}

RpDbscanOptions ClusterOptions(double eps, size_t threads) {
  RpDbscanOptions opts;
  opts.eps = eps;
  opts.min_pts = kMinPts;
  opts.rho = kRho;
  opts.num_partitions = kPartitions;
  opts.num_threads = threads;
  // Every timed call freezes its model for serving, as a deployment that
  // publishes what it clusters does.
  opts.capture_model = true;
  return opts;
}

HierarchyOptions LadderOptions(const std::vector<double>& eps,
                               size_t threads) {
  HierarchyOptions opts;
  opts.eps_levels = eps;
  opts.min_pts_levels = {kMinPts};
  opts.rho = kRho;
  opts.num_partitions = kPartitions;
  opts.num_threads = threads;
  return opts;
}

std::string Describe(const char* what, const Status& status) {
  return std::string(what) + ": " + status.ToString();
}

/// Flips one label when the flip fault is due, then compares.
bool LabelsMatch(Context& c, Labels* got, const Labels& want) {
  if (c.TakeInjection(Inject::kFlipLabel) && !got->empty()) {
    (*got)[0] = (*got)[0] == 0 ? 1 : 0;
  }
  return *got == want;
}

// ---------------------------------------------------------------------------
// Serving: checks on a published model, and the closed-loop client.
// ---------------------------------------------------------------------------

/// Untimed checks of a freshly published model: a strided sample of
/// training points must replay their labels exactly, and one grouped batch
/// must equal serial Classify query by query.
bool CheckServed(const PublishedEpoch& epoch, const Dataset& train,
                 const Labels& labels, const Dataset& batch, ThreadPool& pool,
                 std::string* why) {
  const LabelServer& server = *epoch.server;
  const size_t stride = std::max<size_t>(1, train.size() / 256);
  for (size_t i = 0; i < train.size(); i += stride) {
    const ServeResult r = server.Classify(train.point(i));
    if (r.cluster != labels[i] || r.certainty != Certainty::kExact) {
      *why = "training point " + std::to_string(i) + " served cluster " +
             std::to_string(r.cluster) + ", trained " +
             std::to_string(labels[i]);
      return false;
    }
  }
  std::vector<ServeResult> grouped;
  const Status s = server.ClassifyBatch(batch, pool, &grouped);
  if (!s.ok() || grouped.size() != batch.size()) {
    *why = Describe("check batch", s);
    return false;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const ServeResult r = server.Classify(batch.point(i));
    const ServeResult& g = grouped[i];
    if (r.cluster != g.cluster || r.kind != g.kind ||
        r.certainty != g.certainty || r.density != g.density) {
      *why = "batch query " + std::to_string(i) + " differs from Classify";
      return false;
    }
  }
  return true;
}

/// One client sends back-to-back ClassifyBatch requests, pinning the
/// registry's current epoch per request: batches_per_publish of them, or
/// as many as start within serve_seconds.
void ServeWindow(Context& c, const EpochRegistry& registry, ThreadPool& pool,
                 const std::vector<Dataset>& batches, size_t* cursor) {
  std::vector<ServeResult> results;
  const Clock::time_point t0 = Clock::now();
  double busy = 0;
  uint64_t served = 0;
  for (size_t k = 0; c.def.batches_per_publish > 0
                         ? k < c.def.batches_per_publish
                         : SecondsSince(t0) < c.def.serve_seconds;
       ++k) {
    const Dataset& batch = batches[(*cursor)++ % batches.size()];
    ServeStats stats;
    Tracer::Scope span(c.tracer, "label_server.classify_batch");
    const std::shared_ptr<const PublishedEpoch> epoch = registry.Current();
    const Status s = epoch->server->ClassifyBatch(batch, pool, &results,
                                                  &stats);
    const double seconds = span.Close();
    if (!c.ledger().Record(s.ok() && results.size() == batch.size(),
                           Describe("classify batch", s))) {
      continue;
    }
    c.s.batch_s.push_back(seconds);
    c.s.queries += batch.size();
    c.s.serve.Merge(stats);
    busy += seconds;
    served += batch.size();
  }
  if (busy > 0) c.s.window_qps.push_back(static_cast<double>(served) / busy);
}

/// Freezes a captured model and makes it current; returns the registry
/// publish status.
Status Publish(Context& c, CapturedModel model, EpochRegistry* registry) {
  auto snap = [&] {
    Tracer::Scope span(c.tracer, "snapshot.freeze");
    return ClusterModelSnapshot::FromModel(std::move(model));
  }();
  if (!snap.ok()) return snap.status();
  Tracer::Scope span(c.tracer, "epoch_registry.publish");
  auto published = registry->Publish(std::move(*snap));
  c.s.registry_publish_s.push_back(span.Close());
  return published.status();
}

// ---------------------------------------------------------------------------
// Timed operations.
// ---------------------------------------------------------------------------

/// Where a published model goes and who queries it.
struct Publishing {
  EpochRegistry* registry;
  ThreadPool* pool;
  const std::vector<Dataset>* batches;
  size_t* cursor;
};

/// One RunRpDbscan call checked against the reference labels; its time
/// goes to `cluster_samples` when given. With `pub`, the captured model is
/// also published (epoch_visible_s) and served. Returns whether the
/// operation succeeded.
bool ClusterOp(Context& c, const Dataset& data, size_t threads,
               const Labels& reference, std::vector<double>* cluster_samples,
               const Publishing* pub) {
  RpDbscanOptions opts = ClusterOptions(c.def.eps[0], threads);
  if (c.TakeInjection(Inject::kErrorStatus)) opts.eps = -1.0;
  if (c.tracer != nullptr) c.tracer->BeginRun();
  Tracer::Scope visible(c.tracer, pub != nullptr ? "op.publish" : "op.cluster");
  Tracer::Scope call(c.tracer, "pipeline.rp_dbscan_call");
  auto result = RunRpDbscan(data, opts);
  const double cluster_s = call.Close();
  const std::string what = "RunRpDbscan " + std::to_string(threads) + "t: ";
  if (!result.ok()) {
    c.ledger().Record(false, what + result.status().ToString());
    return false;
  }
  Status published = Status::OK();
  if (pub != nullptr) {
    published = Publish(c, std::move(*result->model), pub->registry);
  }
  const double visible_s = visible.Close();
  std::string why;
  bool ok = published.ok();
  if (!ok) {
    why = Describe("publish", published);
  } else if (!LabelsMatch(c, &result->labels, reference)) {
    ok = false;
    why = "labels differ from the reference run";
  } else if (pub != nullptr) {
    ok = CheckServed(*pub->registry->Current(), data, reference,
                     (*pub->batches)[0], *pub->pool, &why);
  }
  if (!c.ledger().Record(ok, what + why)) return false;
  if (cluster_samples != nullptr) cluster_samples->push_back(cluster_s);
  if (pub != nullptr) {
    c.s.visible_s.push_back(visible_s);
    ServeWindow(c, *pub->registry, *pub->pool, *pub->batches, pub->cursor);
  }
  return true;
}

HierarchySummary Summarize(const ClusterHierarchy& h, double seconds) {
  HierarchySummary sum;
  sum.build_s = seconds;
  sum.levels = static_cast<double>(h.levels.size());
  sum.phase1_s = h.phase1_seconds;
  sum.dictionary_s = h.dictionary_seconds;
  sum.broadcast_s = h.broadcast_seconds;
  for (const HierarchyLevel& level : h.levels) {
    sum.phase2_s += level.phase2_seconds;
    sum.merge_s += level.merge_seconds;
    sum.label_s += level.label_seconds;
    sum.clusters += static_cast<double>(level.num_clusters);
    sum.core_cells += static_cast<double>(level.num_core_cells);
    sum.noise_points += static_cast<double>(level.num_noise_points);
    sum.containment_violations +=
        static_cast<double>(level.containment_violations);
  }
  return sum;
}

/// One BuildClusterHierarchy call: ValidateForest must pass, the finest
/// rung must equal RunRpDbscan at the finest radius, and every rung must
/// equal the first successful ladder of the run (kept in `rungs`).
bool LadderOp(Context& c, const Dataset& data, size_t threads,
              const Labels& finest_reference, std::vector<Labels>* rungs) {
  HierarchyOptions opts = LadderOptions(c.def.eps, threads);
  if (c.TakeInjection(Inject::kErrorStatus)) {
    std::reverse(opts.eps_levels.begin(), opts.eps_levels.end());
  }
  if (c.tracer != nullptr) c.tracer->BeginRun();
  Tracer::Scope call(c.tracer, "hierarchy.build");
  auto h = BuildClusterHierarchy(data, opts);
  const double seconds = call.Close();
  if (!h.ok()) {
    c.ledger().Record(false, Describe("BuildClusterHierarchy", h.status()));
    return false;
  }
  std::string why;
  bool ok = h->ValidateForest(&why);
  if (ok && !LabelsMatch(c, &h->levels[0].labels, finest_reference)) {
    ok = false;
    why = "finest rung differs from RunRpDbscan at the finest radius";
  }
  if (ok && !rungs->empty()) {
    ok = rungs->size() == h->levels.size();
    for (size_t i = 0; ok && i < rungs->size(); ++i) {
      ok = h->levels[i].labels == (*rungs)[i];
    }
    if (!ok) why = "rungs differ between ladder calls";
  }
  if (!c.ledger().Record(ok, "BuildClusterHierarchy: " + why)) return false;
  if (rungs->empty()) {
    for (HierarchyLevel& level : h->levels) {
      rungs->push_back(std::move(level.labels));
    }
  }
  (threads == kThreads ? c.s.cluster_s : c.s.cluster_1t_s)
      .push_back(seconds);
  return true;
}

/// The audited reference run every timed output is compared against.
bool ReferenceRun(Context& c, const Dataset& data, double eps,
                  Labels* labels) {
  RpDbscanOptions opts = ClusterOptions(eps, kThreads);
  opts.capture_model = false;
  opts.audit_level = c.def.reference_audit;
  auto ref = RunRpDbscan(data, opts);
  if (!c.ledger().Record(ref.ok(), Describe("reference run", ref.status()))) {
    return false;
  }
  *labels = std::move(ref->labels);
  return true;
}

/// Checks the reference fingerprint against the one pinned for the
/// default seed (lines "<workload> <seed> <hex fingerprint>").
void CheckPinned(Context& c, uint64_t hash) {
  c.out->label_hash = hash;
  if (c.cfg.smoke || c.cfg.pinned_path.empty()) return;
  std::ifstream in(c.cfg.pinned_path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, hex;
    uint64_t seed = 0;
    if (!(fields >> name >> seed >> hex) || name != c.def.name ||
        seed != c.cfg.seed) {
      continue;
    }
    const uint64_t pinned = std::stoull(hex, nullptr, 16);
    c.ledger().Record(pinned == hash,
                      "label fingerprint differs from the pinned " + hex);
    return;
  }
}

// ---------------------------------------------------------------------------
// Traced decomposition.
// ---------------------------------------------------------------------------

/// Passes at 4 threads (interleaved with untraced library calls, for the
/// overhead and the unattributed time), then at 2 and 1 threads. Each
/// decomposed output must equal `expect`.
void DecompositionPhase(
    Context& c, const std::vector<Labels>& expect,
    const std::function<StatusOr<double>(size_t)>& untraced,
    const std::function<StatusOr<DecomposedRun>(size_t)>& decomposed) {
  auto record = [&](size_t threads) -> std::optional<DecomposedRun> {
    c.tracer->BeginRun();
    auto run = decomposed(threads);
    if (!run.ok()) {
      c.ledger().Record(false, Describe("decomposed run", run.status()));
      return std::nullopt;
    }
    if (!c.ledger().Record(run->labels == expect,
                           "decomposed labels differ from the library's")) {
      return std::nullopt;
    }
    run->labels.clear();  // checked; only the timings are kept
    return std::move(*run);
  };
  for (int rep = 0; rep < 2; ++rep) {
    auto seconds = untraced(kThreads);
    if (c.ledger().Record(seconds.ok(), "untraced call")) {
      c.s.untraced_s.push_back(*seconds);
    }
    if (auto run = record(kThreads)) c.s.decomposed_4t.push_back(*run);
  }
  if (auto run = record(2)) c.s.decomposed_2t = *run;
  if (auto run = record(1)) c.s.decomposed_1t = *run;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Runs `setup` kSetupReps times (the median is setup_s) and keeps the
/// last result. Each rep starts after the previous result is freed.
template <typename T>
T TimedSetup(Context& c, const std::function<T()>& setup) {
  std::optional<T> value;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    value.reset();
    const Clock::time_point t0 = Clock::now();
    value.emplace(setup());
    c.s.setup_s.push_back(SecondsSince(t0));
  }
  return std::move(*value);
}

/// One kind of timed operation of a run and the samples it has produced.
struct Track {
  const std::vector<double>& samples;
  size_t min_samples;
  std::function<bool()> op;
  double spent = 0;  // wall seconds of its operations, checks included

  /// One sample suffices when it alone took more than a quarter of the
  /// budget.
  bool Satisfied(const Context& c) const {
    return samples.size() >= min_samples ||
           (!samples.empty() && samples[0] > 0.25 * c.cfg.seconds);
  }
};

/// Alternates the 4-thread and the 1-thread operation until `deadline`
/// has passed and both have their samples, spending about `share_1t` of
/// the time on the 1-thread one. Both thus sample the whole window rather
/// than one half of it each. Gives up after repeated failures.
void Alternate(Context& c, double deadline, Track& four, Track& one,
               double share_1t) {
  while (c.Elapsed() < deadline || !four.Satisfied(c) ||
         !one.Satisfied(c)) {
    const bool pick_one =
        four.Satisfied(c) != one.Satisfied(c)
            ? four.Satisfied(c)
            : one.spent < share_1t * (one.spent + four.spent);
    Track& t = pick_one ? one : four;
    const Clock::time_point t0 = Clock::now();
    const bool ok = t.op();
    t.spent += SecondsSince(t0);
    if (!ok && c.ledger().failed() > 4) return;
  }
}

StatusOr<double> TimeCall(const std::function<Status()>& call) {
  const Clock::time_point t0 = Clock::now();
  const Status s = call();
  if (!s.ok()) return s;
  return SecondsSince(t0);
}

/// Traced decomposition of plain RunRpDbscan calls over `data`.
void DecomposeRpDbscan(Context& c, const Dataset& data,
                       const Labels& reference) {
  DecompositionPhase(
      c, {reference},
      [&](size_t threads) {
        return TimeCall([&] {
          return RunRpDbscan(data, ClusterOptions(c.def.eps[0], threads))
              .status();
        });
      },
      [&](size_t threads) {
        return RunDecomposed(data, ClusterOptions(c.def.eps[0], threads),
                             c.tracer);
      });
}

void RunBatch(Context& c) {
  const Inputs in = TimedSetup<Inputs>(c, [&] { return MakeInputs(c); });
  Labels reference;
  if (!ReferenceRun(c, in.train, c.def.eps[0], &reference)) return;
  CheckPinned(c, HashLabels(reference));

  ThreadPool serve_pool(kServeThreads);
  EpochRegistry registry;
  size_t cursor = 0;
  const Publishing pub{&registry, &serve_pool, &in.query_batches, &cursor};
  auto publish_op = [&] {
    return ClusterOp(c, in.train, kThreads, reference, &c.s.cluster_s, &pub);
  };
  c.start = Clock::now();
  if (c.traced()) {
    for (int rep = 0; rep < 2; ++rep) publish_op();
    DecomposeRpDbscan(c, in.train, reference);
    return;
  }
  // 4-thread calls, each published and served, alternate with the
  // single-thread baseline.
  Track four{c.s.cluster_s, 3, publish_op};
  Track one{c.s.cluster_1t_s, 3, [&] {
              return ClusterOp(c, in.train, 1, reference, &c.s.cluster_1t_s,
                               nullptr);
            }};
  Alternate(c, c.cfg.seconds, four, one, kShare1t);
}

void RunLadder(Context& c) {
  const Inputs in = TimedSetup<Inputs>(c, [&] { return MakeInputs(c); });
  Labels finest;
  if (!ReferenceRun(c, in.train, c.def.eps[0], &finest)) return;

  ThreadPool serve_pool(kServeThreads);
  EpochRegistry registry;
  size_t cursor = 0;
  const Publishing pub{&registry, &serve_pool, &in.query_batches, &cursor};
  std::vector<Labels> rungs;
  // A 4-thread ladder; after it, the finest rung's model is clustered,
  // published and served four times. That call takes a tenth of the
  // ladder; with two, the p75 of a run's 6-8 epoch_visible samples moved by
  // 15% between runs.
  auto ladder_op = [&] {
    bool ok = LadderOp(c, in.train, kThreads, finest, &rungs);
    for (int rep = 0; rep < 4; ++rep) {
      ok = ClusterOp(c, in.train, kThreads, finest, nullptr, &pub) && ok;
    }
    return ok;
  };
  c.start = Clock::now();
  if (c.traced()) {
    ladder_op();
  } else {
    Track four{c.s.cluster_s, 3, ladder_op};
    Track one{c.s.cluster_1t_s, 3,
              [&] { return LadderOp(c, in.train, 1, finest, &rungs); }};
    Alternate(c, c.cfg.seconds, four, one, kShare1t);
  }
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const Labels& rung : rungs) hash = HashLabels(rung, hash);
  CheckPinned(c, hash);
  if (c.traced()) {
    if (rungs.empty()) return;
    DecompositionPhase(
        c, rungs,
        [&](size_t threads) -> StatusOr<double> {
          const Clock::time_point t0 = Clock::now();
          auto h = BuildClusterHierarchy(in.train,
                                         LadderOptions(c.def.eps, threads));
          if (!h.ok()) return h.status();
          const double seconds = SecondsSince(t0);
          c.s.hierarchy.push_back(Summarize(*h, seconds));
          return seconds;
        },
        [&](size_t threads) {
          return RunDecomposedLadder(in.train,
                                     LadderOptions(c.def.eps, threads),
                                     c.tracer);
        });
  }
}

/// The stream's writer side after set-up: the clusterer holding the seed
/// epoch and the registry serving it.
struct StreamState {
  Inputs in;
  std::unique_ptr<StreamClusterer> clusterer;
  std::unique_ptr<EpochRegistry> registry;
  Status status = Status::OK();
};

StreamState StreamSetup(const Context& c) {
  StreamState st;
  st.in = MakeInputs(c);
  st.registry = std::make_unique<EpochRegistry>();
  auto clusterer = StreamClusterer::Create(
      st.in.train, ClusterOptions(c.def.eps[0], kThreads));
  if (!clusterer.ok()) {
    st.status = clusterer.status();
    return st;
  }
  st.clusterer = std::make_unique<StreamClusterer>(std::move(*clusterer));
  auto epoch = st.clusterer->PublishEpoch();
  if (!epoch.ok()) {
    st.status = epoch.status();
    return st;
  }
  st.status = st.registry->Publish(std::move(epoch->snapshot)).status();
  return st;
}

/// One epoch: Ingest, PublishEpoch, registry publish (epoch_visible_s),
/// the untimed served-model checks, then the serving window.
bool EpochOp(Context& c, const Dataset& batch, StreamState& st,
             ThreadPool& serve_pool, size_t* cursor, Labels* labels) {
  StreamClusterer& clusterer = *st.clusterer;
  if (c.tracer != nullptr) c.tracer->BeginRun();
  Tracer::Scope visible(c.tracer, "op.epoch");
  Tracer::Scope ingest_span(c.tracer, "stream.ingest");
  const Status ingested = clusterer.Ingest(batch);
  const double ingest_s = ingest_span.Close();
  if (!c.ledger().Record(ingested.ok(), Describe("Ingest", ingested))) {
    return false;
  }
  Tracer::Scope publish_span(c.tracer, "stream.publish_epoch");
  auto epoch = clusterer.PublishEpoch();
  const double publish_s = publish_span.Close();
  if (!epoch.ok()) {
    c.ledger().Record(false, Describe("PublishEpoch", epoch.status()));
    return false;
  }
  Tracer::Scope registry_span(c.tracer, "epoch_registry.publish");
  auto published = st.registry->Publish(std::move(epoch->snapshot));
  c.s.registry_publish_s.push_back(registry_span.Close());
  const double visible_s = visible.Close();
  std::string why;
  bool ok = published.ok();
  if (!ok) {
    why = Describe("registry publish", published.status());
  } else {
    ok = CheckServed(**published, clusterer.data(), epoch->labels,
                     st.in.query_batches[0], clusterer.pool(), &why);
  }
  if (!c.ledger().Record(ok, "epoch: " + why)) return false;
  const EpochStats& es = epoch->stats;
  c.s.visible_s.push_back(visible_s);
  c.s.ingest_s.push_back(ingest_s);
  c.s.publish_epoch_s.push_back(publish_s);
  c.s.dirty_cells.push_back(static_cast<double>(es.dirty_cells));
  c.s.reclustered_ratio.push_back(
      es.total_points > 0 ? static_cast<double>(es.reclustered_points) /
                                static_cast<double>(es.total_points)
                          : 0);
  *labels = std::move(epoch->labels);
  ServeWindow(c, *st.registry, serve_pool, st.in.query_batches, cursor);
  return true;
}

void RunStream(Context& c) {
  StreamState st =
      TimedSetup<StreamState>(c, [&] { return StreamSetup(c); });
  if (!c.ledger().Record(st.status.ok(), Describe("seed epoch", st.status))) {
    return;
  }
  ThreadPool serve_pool(kServeThreads);
  size_t cursor = 0;
  Labels last_labels;
  c.start = Clock::now();
  for (const Dataset& batch : st.in.ingest) {
    EpochOp(c, batch, st, serve_pool, &cursor, &last_labels);
  }

  // The final epoch must equal a from-scratch run over the same points;
  // that run is also the reference of the timed from-scratch calls.
  const Dataset& data = st.clusterer->data();
  Labels reference;
  if (!ReferenceRun(c, data, c.def.eps[0], &reference)) return;
  c.ledger().Record(last_labels == reference,
                    "final epoch differs from a from-scratch run");
  CheckPinned(c, HashLabels(reference));
  if (c.traced()) {
    DecomposeRpDbscan(c, data, reference);
    return;
  }
  Track four{c.s.cluster_s, 3, [&] {
               return ClusterOp(c, data, kThreads, reference, &c.s.cluster_s,
                                nullptr);
             }};
  Track one{c.s.cluster_1t_s, 3, [&] {
              return ClusterOp(c, data, 1, reference, &c.s.cluster_1t_s,
                               nullptr);
            }};
  Alternate(c, c.cfg.seconds, four, one, kShare1t);
}

// ---------------------------------------------------------------------------
// Metric emission.
// ---------------------------------------------------------------------------

void Add(std::vector<Metric>* m, const char* name, double value,
         const char* unit) {
  m->push_back({name, value, unit});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void EmitEndToEnd(Context& c) {
  const Samples& s = c.s;
  std::vector<Metric>& m = c.out->metrics;
  double busy = 0;
  std::vector<double> batch_ms;
  for (const double b : s.batch_s) {
    busy += b;
    batch_ms.push_back(b * 1e3);
  }
  Add(&m, "cluster_s", Median(s.cluster_s), "s");
  Add(&m, "cluster_s_1t", Median(s.cluster_1t_s), "s");
  Add(&m, "epoch_visible_s_p50", Median(s.visible_s), "s");
  Add(&m, "epoch_visible_s_p75", Percentile(s.visible_s, 0.75), "s");
  // The median serving window's rate, not the pooled one: a few batches
  // stalled by host preemption move the pooled rate by 15% on a shared host.
  Add(&m, "classify_qps", Median(s.window_qps), "1/s");
  Add(&m, "classify_batch_ms_p50", Median(batch_ms), "ms");
  Add(&m, "setup_s", Median(s.setup_s), "s");
  Add(&m, "peak_rss_mb", PeakRssMb(), "MiB");

  std::vector<Metric>& d = c.out->detail;
  Add(&d, "cluster_samples", static_cast<double>(s.cluster_s.size()), "count");
  Add(&d, "cluster_1t_samples", static_cast<double>(s.cluster_1t_s.size()),
      "count");
  Add(&d, "epoch_samples", static_cast<double>(s.visible_s.size()), "count");
  Add(&d, "classify_batches", static_cast<double>(s.batch_s.size()),
      "count");
  Add(&d, "classify_batch_ms_p99", Percentile(batch_ms, 0.99), "ms");
  Add(&d, "classify_qps_pooled", Ratio(static_cast<double>(s.queries), busy),
      "1/s");
  for (const auto& [name, v] :
       {std::pair{"cluster_s", &s.cluster_s},
        std::pair{"cluster_s_1t", &s.cluster_1t_s},
        std::pair{"epoch_visible_s", &s.visible_s},
        std::pair{"setup_s", &s.setup_s}}) {
    if (v->empty()) continue;
    const auto [lo, hi] = std::minmax_element(v->begin(), v->end());
    Add(&d, (std::string(name) + "_min").c_str(), *lo, "s");
    Add(&d, (std::string(name) + "_max").c_str(), *hi, "s");
  }
}

/// Median of one field over the 4-thread decomposed passes.
double Median4t(const Samples& s,
                const std::function<double(const DecomposedRun&)>& field) {
  std::vector<double> v;
  for (const DecomposedRun& r : s.decomposed_4t) v.push_back(field(r));
  return Median(v);
}

double Efficiency(double t1, double tn, double n) {
  return Ratio(t1, n * tn);
}

void EmitPerLayer(Context& c) {
  const Samples& s = c.s;
  std::vector<Metric>& m = c.out->metrics;
  const PipelineCounters pc = s.decomposed_4t.empty()
                                  ? PipelineCounters()
                                  : s.decomposed_4t.back().counters;
  auto layer = [&](double LayerSeconds::*field) {
    return Median4t(s, [field](const DecomposedRun& r) {
      return r.seconds.*field;
    });
  };
  auto eff = [&](double LayerSeconds::*field) {
    return Efficiency(s.decomposed_1t.seconds.*field, layer(field), 4);
  };
  const double span_sum =
      Median4t(s, [](const DecomposedRun& r) { return r.seconds.Sum(); });
  const double traced_total =
      Median4t(s, [](const DecomposedRun& r) { return r.total_seconds; });
  const double untraced = Median(s.untraced_s);

  Add(&m, "cell_set.build_s", layer(&LayerSeconds::cell_set), "s");
  Add(&m, "cell_set.cells", pc.cells, "count");
  Add(&m, "cell_dictionary.build_s", layer(&LayerSeconds::dict_build), "s");
  Add(&m, "cell_dictionary.subcells", pc.subcells, "count");
  Add(&m, "cell_dictionary.subdicts", pc.subdicts, "count");
  Add(&m, "cell_dictionary.lemma43_bytes", pc.lemma43_bytes, "bytes");
  Add(&m, "cell_dictionary.serialize_s", layer(&LayerSeconds::serialize),
      "s");
  Add(&m, "cell_dictionary.deserialize_s", layer(&LayerSeconds::deserialize),
      "s");
  Add(&m, "cell_dictionary.wire_bytes", pc.wire_bytes, "bytes");
  Add(&m, "phase2.build_subgraphs_s", layer(&LayerSeconds::phase2), "s");
  Add(&m, "phase2.task_max_over_mean", pc.task_max_over_mean, "ratio");
  Add(&m, "phase2.candidate_cells_scanned", pc.candidate_cells_scanned,
      "count");
  Add(&m, "phase2.early_exit_ratio", Ratio(pc.early_exits, pc.points_scanned),
      "ratio");
  Add(&m, "phase2.stencil_probes", pc.stencil_probes, "count");
  Add(&m, "phase2.stencil_hit_ratio",
      Ratio(pc.stencil_hits, pc.stencil_probes), "ratio");
  Add(&m, "phase2.subdict_visit_ratio",
      Ratio(pc.subdict_visited, pc.subdict_possible), "ratio");
  Add(&m, "phase2.core_cells", pc.core_cells, "count");
  Add(&m, "merge.merge_s", layer(&LayerSeconds::merge), "s");
  Add(&m, "merge.edges_in", pc.edges_in, "count");
  Add(&m, "merge.edges_kept_ratio", Ratio(pc.edges_kept, pc.edges_in),
      "ratio");
  Add(&m, "labeling.label_s", layer(&LayerSeconds::label), "s");
  Add(&m, "labeling.noise_points", pc.noise_points, "count");
  Add(&m, "snapshot.capture_s", layer(&LayerSeconds::capture), "s");

  Add(&m, "cell_set.eff_4t", eff(&LayerSeconds::cell_set), "ratio");
  Add(&m, "cell_dictionary.eff_4t", eff(&LayerSeconds::dict_build), "ratio");
  Add(&m, "cell_dictionary.deserialize_eff_4t",
      eff(&LayerSeconds::deserialize), "ratio");
  Add(&m, "phase2.eff_4t", eff(&LayerSeconds::phase2), "ratio");
  Add(&m, "merge.eff_4t", eff(&LayerSeconds::merge), "ratio");
  Add(&m, "labeling.eff_4t", eff(&LayerSeconds::label), "ratio");
  Add(&m, "pipeline.eff_4t",
      Efficiency(s.decomposed_1t.total_seconds, traced_total, 4), "ratio");
  Add(&m, "pipeline.eff_2t",
      Efficiency(s.decomposed_1t.total_seconds,
                 s.decomposed_2t.total_seconds, 2),
      "ratio");

  Add(&m, "stream.ingest_s", Median(s.ingest_s), "s");
  Add(&m, "stream.publish_epoch_s", Median(s.publish_epoch_s), "s");
  Add(&m, "stream.dirty_cells", Median(s.dirty_cells), "count");
  Add(&m, "stream.reclustered_ratio", Median(s.reclustered_ratio), "ratio");
  Add(&m, "epoch_registry.publish_s", Median(s.registry_publish_s), "s");

  std::vector<double> batch_ms;
  for (const double b : s.batch_s) batch_ms.push_back(b * 1e3);
  const double queries = static_cast<double>(s.serve.queries);
  Add(&m, "label_server.classify_batch_ms", Median(batch_ms), "ms");
  Add(&m, "label_server.batch_ms_p99", Percentile(batch_ms, 0.99), "ms");
  Add(&m, "label_server.cell_hit_ratio",
      Ratio(static_cast<double>(s.serve.cell_hits), queries), "ratio");
  Add(&m, "label_server.exact_ratio",
      Ratio(static_cast<double>(s.serve.exact), queries), "ratio");
  Add(&m, "label_server.stencil_probes_per_query",
      Ratio(static_cast<double>(s.serve.stencil_probes), queries),
      "1/query");
  Add(&m, "label_server.border_ref_scans",
      Ratio(static_cast<double>(s.serve.border_ref_scans), queries),
      "1/query");

  HierarchySummary h;
  if (!s.hierarchy.empty()) {
    auto med = [&](double HierarchySummary::*field) {
      std::vector<double> v;
      for (const HierarchySummary& x : s.hierarchy) v.push_back(x.*field);
      return Median(v);
    };
    h = s.hierarchy.back();
    for (double HierarchySummary::*field :
         {&HierarchySummary::build_s, &HierarchySummary::phase1_s,
          &HierarchySummary::dictionary_s, &HierarchySummary::broadcast_s,
          &HierarchySummary::phase2_s, &HierarchySummary::merge_s,
          &HierarchySummary::label_s}) {
      h.*field = med(field);
    }
  }
  Add(&m, "hierarchy.build_s", h.build_s, "s");
  Add(&m, "hierarchy.levels", h.levels, "count");
  Add(&m, "hierarchy.phase1_s", h.phase1_s, "s");
  Add(&m, "hierarchy.dictionary_s", h.dictionary_s, "s");
  Add(&m, "hierarchy.broadcast_s", h.broadcast_s, "s");
  Add(&m, "hierarchy.phase2_s", h.phase2_s, "s");
  Add(&m, "hierarchy.merge_s", h.merge_s, "s");
  Add(&m, "hierarchy.label_s", h.label_s, "s");
  Add(&m, "hierarchy.clusters", h.clusters, "count");
  Add(&m, "hierarchy.core_cells", h.core_cells, "count");
  Add(&m, "hierarchy.noise_points", h.noise_points, "count");
  Add(&m, "hierarchy.containment_violations", h.containment_violations,
      "count");

  Add(&m, "trace.unattributed_s", untraced - span_sum, "s");
  Add(&m, "trace.overhead_frac", Ratio(traced_total - untraced, untraced),
      "ratio");

  std::vector<Metric>& d = c.out->detail;
  Add(&d, "trace.untraced_cluster_s", untraced, "s");
  Add(&d, "trace.traced_cluster_s", traced_total, "s");
  Add(&d, "trace.span_sum_s", span_sum, "s");
  for (const auto& [name, seconds] : c.tracer->SelfSeconds()) {
    d.push_back({"self." + name + "_s", seconds, "s"});
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& d : Defs()) v.push_back(d.name);
    return v;
  }();
  return names;
}

Status RunWorkload(const RunConfig& cfg, RunOutput* out) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : Defs()) {
    if (cfg.workload == d.name) def = &d;
  }
  if (def == nullptr) {
    return Status::InvalidArgument("unknown workload " + cfg.workload);
  }
  Tracer tracer;
  Context c{cfg, cfg.smoke ? Smoke(*def) : *def, Sizes(),
            cfg.trace ? &tracer : nullptr, out};
  if (cfg.smoke) {
    c.sizes.batch_queries = 256;
    c.sizes.distinct_batches = 4;
  }
  switch (c.def.kind) {
    case Kind::kBatch:
      RunBatch(c);
      break;
    case Kind::kStream:
      RunStream(c);
      break;
    case Kind::kLadder:
      RunLadder(c);
      break;
  }
  if (cfg.trace) {
    EmitPerLayer(c);
    if (!cfg.trace_path.empty()) {
      std::ofstream trace_file(cfg.trace_path);
      trace_file << tracer.ChromeJson() << '\n';
      if (!trace_file) {
        return Status::IOError("cannot write " + cfg.trace_path);
      }
    }
  } else {
    EmitEndToEnd(c);
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace rpdbscan
