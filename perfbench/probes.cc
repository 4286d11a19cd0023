// Per-layer probes of the traced run. Each probe is a span around a call
// into one module's public functions, made from the benchmark's own code;
// registry counters come from snapshots taken around the set-up and the
// timed phase. Every metric names the end-to-end metric it should move.

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/degree_improve.h"
#include "core/forest_polytope.h"
#include "core/private_cc.h"
#include "dp/gem.h"
#include "graph/connectivity.h"
#include "graph/graph_io.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace {

class Probes {
 public:
  explicit Probes(ProbeContext& c) : c_(c) {}
  void Run();

 private:
  // Runs `fn` inside span `name`; returns its wall time in seconds.
  double Timed(const char* name, const std::function<void()>& fn) {
    const int span = c_.tracer.Begin(name);
    const std::int64_t start = NowNs();
    fn();
    const std::int64_t end = NowNs();
    c_.tracer.End(span);
    return static_cast<double>(end - start) * 1e-9;
  }
  void Add(const char* name, double value, const char* unit,
           const char* moves) {
    c_.metrics.push_back({name, value, unit, moves});
  }
  // Mean of a registry histogram over [before, after], in `scale` units.
  double HistogramMean(const RegistrySnapshot& before,
                       const RegistrySnapshot& after, const std::string& name,
                       const std::string& labels, double scale) const {
    const double count =
        RegistryDelta(before, after, name + "_count" + labels);
    return count > 0
               ? RegistryDelta(before, after, name + "_sum" + labels) /
                     count * scale
               : 0.0;
  }

  void GraphLayer();
  void FamilyLayer();
  void CellLayer();
  void DpLayer();
  void ServeLayer();

  ProbeContext& c_;
  nodedp::Graph graph_;  // the exact graph as the program reads it
  Oracle oracle_;        // own structure of the same graph
  std::vector<double> deltas_;
  std::unique_ptr<nodedp::ExtensionFamily> warm_;
};

void Probes::GraphLayer() {
  const std::string dir = c_.options.dir + "/";
  nodedp::Result<nodedp::Graph> read = nodedp::Status::Internal("unread");
  Add("graph.read_s",
      Timed("graph.read",
            [&] { read = nodedp::ReadGraphAnyFile(dir + kExactFile); }),
      "s", "setup_s@release_stream");
  c_.check.Expect(read.ok(), "ReadGraphAnyFile");
  if (!read.ok()) return;
  graph_ = *read;
  c_.check.Expect(graph_.NumVertices() == c_.inputs.exact.n &&
                      graph_.NumEdges() ==
                          static_cast<int>(c_.inputs.exact.edges.size()),
                  "read graph has the written n and m");

  const std::string mapped =
      dir + (c_.options.workload == Workload::kReleaseStream ? kApproxFile
                                                         : kExactV2File);
  nodedp::Result<nodedp::Graph> map = nodedp::Status::Internal("unmapped");
  Add("graph.mmap_open_ms",
      1e3 * Timed("graph.mmap_open",
                  [&] { map = nodedp::Graph::FromMmap(mapped); }),
      "ms", "setup_s@release_stream");
  c_.check.Expect(map.ok(), "Graph::FromMmap");

  std::vector<int> labels;
  Add("graph.components_ms",
      1e3 * Timed("graph.components",
                  [&] { labels = nodedp::ComponentLabels(graph_); }),
      "ms", "setup_s@release_stream");
  oracle_ = BuildOracle(c_.inputs.exact);
  c_.check.Expect(
      !labels.empty() &&
          *std::max_element(labels.begin(), labels.end()) + 1 ==
              oracle_.components,
      "ComponentLabels count equals own union-find count");

  // The first batches of the workload's own update stream, each applied
  // to the loaded graph.
  UpdatePlan plan(c_.options.seed, c_.inputs);
  double total = 0.0;
  constexpr int kBatches = 20;
  for (int i = 0; i < kBatches; ++i) {
    const auto batch = plan.NextBatch();
    total += Timed("graph.apply_delta", [&] {
      const auto delta = graph_.ApplyEdgeDelta(batch);
      c_.check.Expect(delta.ok() && delta->duplicates +
                                            static_cast<int>(
                                                delta->added.size()) ==
                                        static_cast<int>(batch.size()),
                      "ApplyEdgeDelta accounts for every pair");
    });
  }
  Add("graph.apply_delta_ms", 1e3 * total / kBatches, "ms",
      "update_p50_ms");
}

bool SameStats(const nodedp::ExtensionFamily::Stats& a,
               const nodedp::ExtensionFamily::Stats& b) {
  return a.lp_evaluations == b.lp_evaluations &&
         a.fast_certificates == b.fast_certificates &&
         a.watermark_hits == b.watermark_hits && a.cache_hits == b.cache_hits &&
         a.cut_rounds == b.cut_rounds && a.cuts_added == b.cuts_added &&
         a.simplex_iterations == b.simplex_iterations;
}

void Probes::FamilyLayer() {
  const nodedp::ExtensionOptions options;
  deltas_.assign(c_.grid.begin(), c_.grid.end());
  Add("family.construct_ms",
      1e3 * Timed("family.construct",
                  [&] { nodedp::ExtensionFamily eager(graph_, options); }),
      "ms", "setup_s@lp_warm");

  // The load path's deferred construction + pipelined warm, at the run's
  // pool width.
  nodedp::ExtensionFamily::Stats stats;
  Add("family.warm_s", Timed("family.warm", [&] {
        warm_ = std::make_unique<nodedp::ExtensionFamily>(
            graph_, options, nodedp::ExtensionFamily::DeferInduction{});
        c_.check.Expect(warm_->Warm(deltas_).ok(), "ExtensionFamily::Warm");
      }),
      "s", "setup_s@lp_warm");
  stats = warm_->stats();
  const auto values = warm_->Values(deltas_);
  c_.check.Expect(values.ok(), "Values on the warmed family");

  constexpr int kReads = 100;
  Add("family.values_warm_us",
      1e6 / kReads * Timed("family.values_warm", [&] {
        for (int i = 0; i < kReads; ++i) (void)warm_->Values(deltas_);
      }),
      "us", "release_p50_us@release_stream");
  Add("family.memory_mb", warm_->MemoryBytes() / (1024.0 * 1024.0), "MB",
      "peak_rss_mb");

  // Incremental maintenance from the warmed family: the first update
  // batches of the run, each applied to the loaded graph.
  UpdatePlan plan(c_.options.seed, c_.inputs);
  double incremental = 0.0, rewarm = 0.0;
  constexpr int kBatches = 5;
  for (int i = 0; i < kBatches; ++i) {
    const auto delta = graph_.ApplyEdgeDelta(plan.NextBatch());
    c_.check.Expect(delta.ok() && !delta->added.empty(),
                    "an update batch adds edges");
    if (!delta.ok()) continue;
    std::unique_ptr<nodedp::ExtensionFamily> patched;
    incremental += Timed("family.incremental", [&] {
      patched = std::make_unique<nodedp::ExtensionFamily>(
          delta->graph, *warm_, delta->added);
    });
    rewarm += Timed("family.rewarm", [&] {
      c_.check.Expect(patched->Warm(deltas_).ok(), "re-warm after a batch");
    });
  }
  Add("family.incremental_ms", 1e3 * incremental / kBatches, "ms",
      "update_p50_ms");
  Add("family.rewarm_ms", 1e3 * rewarm / kBatches, "ms", "update_p50_ms");

  // Exact work counts of the served set-up warm.
  const auto& s = c_.setup_stats;
  Add("family.components", warm_->num_components(), "count",
      "setup_s@release_stream");
  Add("family.lp_cells", s.lp_evaluations, "count", "setup_s@lp_warm");
  Add("family.fast_cells", s.fast_certificates, "count",
      "setup_s@release_stream");
  Add("family.watermark_hits", s.watermark_hits, "count",
      "setup_s@release_stream");
  Add("family.cache_hits", s.cache_hits, "count", "setup_s@release_stream");
  Add("lp.pivots", static_cast<double>(s.simplex_iterations), "count",
      "setup_s@lp_warm");
  Add("lp.cut_rounds", s.cut_rounds, "count", "setup_s@lp_warm");
  Add("lp.cuts_added", s.cuts_added, "count", "setup_s@lp_warm");

  // Any-width determinism: a replay at pool width 1 must produce the same
  // values and the same work counts as the served width-2 warm.
  nodedp::ThreadPool pool(1);
  nodedp::ScopedThreadPool scope(&pool);
  nodedp::ExtensionFamily replay(graph_, options,
                                 nodedp::ExtensionFamily::DeferInduction{});
  Timed("family.replay_warm",
        [&] { c_.check.Expect(replay.Warm(deltas_).ok(), "replay warm"); });
  const auto replay_stats = replay.stats();
  const auto replay_values = replay.Values(deltas_);
  c_.check.Expect(SameStats(stats, c_.setup_stats),
                  "probe warm counts equal the served warm's");
  c_.check.Expect(SameStats(replay_stats, c_.setup_stats),
                  "width-1 replay counts equal the served warm's");
  c_.check.Expect(values.ok() && replay_values.ok() &&
                      *values == *replay_values,
                  "width-1 replay values are bit-identical");
  if (values.ok()) {
    CheckSameValues(c_.setup_values, *values,
                    "served set-up values vs probe warm", c_.check);
  }
}

void Probes::CellLayer() {
  // Every (component, Δ) cell of the loaded graph at pool width 1, the way
  // the family settles it: the fast-path forest search first, the LP when
  // it fails, and the monotone watermark once a cell reaches |C| - 1.
  nodedp::ThreadPool pool(1);
  nodedp::ScopedThreadPool scope(&pool);
  std::vector<std::vector<std::pair<int, int>>> members(oracle_.components);
  std::vector<int> local(c_.inputs.exact.n, 0);
  std::vector<int> count(oracle_.components, 0);
  for (int v = 0; v < c_.inputs.exact.n; ++v) {
    local[v] = count[oracle_.label[v]]++;
  }
  for (const auto& [u, v] : c_.inputs.exact.edges) {
    members[oracle_.label[u]].emplace_back(local[u], local[v]);
  }
  std::vector<double> totals(deltas_.size(), 0.0);
  double repair_s = 0.0, lp_s = 0.0, cell_max_s = 0.0, separation_s = 0.0;
  for (int comp = 0; comp < oracle_.components; ++comp) {
    if (oracle_.size[comp] < 2) continue;
    const double tree = oracle_.size[comp] - 1.0;
    const nodedp::Graph sub(oracle_.size[comp], members[comp]);
    std::size_t i = 0;
    for (; i < deltas_.size(); ++i) {
      bool certified = false;
      repair_s += Timed("repair.fast_path", [&] {
        certified = nodedp::FindSpanningForestOfDegree(
                        sub, static_cast<int>(deltas_[i]))
                        .has_value();
      });
      if (certified) break;
      nodedp::ForestPolytopeResult lp;
      const double cell = Timed("lp.cell", [&] {
        lp = nodedp::MaximizeOverForestPolytope(sub, deltas_[i]);
      });
      lp_s += cell;
      cell_max_s = std::max(cell_max_s, cell);
      c_.check.Expect(lp.status == nodedp::LpStatus::kOptimal,
                      "forest-polytope LP solves to optimality");
      totals[i] += lp.value;
      std::size_t violated = 0;
      separation_s += Timed("flow.separation", [&] {
        violated = nodedp::FindViolatedSubtourSets(sub, lp.x, 1e-7, 0).size();
      });
      c_.check.Expect(violated == 0,
                      "no subtour constraint is violated at the LP optimum");
      if (lp.value >= tree - 1e-9) {
        ++i;
        break;
      }
    }
    for (; i < deltas_.size(); ++i) totals[i] += tree;
  }
  CheckSameValues(c_.setup_values, totals,
                  "per-cell LP sums vs served set-up values", c_.check);
  Add("repair.fast_path_ms", 1e3 * repair_s, "ms", "setup_s@release_stream");
  Add("lp.cell_max_s", cell_max_s, "s", "setup_s@lp_warm");
  Add("lp.cells_s", lp_s, "s", "setup_s@lp_warm");
  Add("flow.separation_ms", 1e3 * separation_s, "ms", "setup_s@lp_warm");
  Add("lp.solve_s",
      1e-9 * RegistryDelta(c_.at_start, c_.after_setup,
                           "nodedp_family_lp_solve_ns_sum"),
      "s", "setup_s@lp_warm");
}

void Probes::DpLayer() {
  const auto release = c_.server.ReleaseSf("g", 1.0);
  c_.check.Expect(release.ok(), "ReleaseSf for GEM candidates");
  if (!release.ok()) return;
  nodedp::Rng rng(c_.options.seed);
  constexpr int kGem = 2000;
  Add("dp.gem_us", 1e6 / kGem * Timed("dp.gem", [&] {
        for (int i = 0; i < kGem; ++i) {
          (void)nodedp::GemSelect(release->candidates, 0.5, release->beta, rng);
        }
      }),
      "us", "release_p50_us");
  constexpr int kReleases = 100;
  Add("dp.release_us", 1e6 / kReleases * Timed("dp.release", [&] {
        for (int i = 0; i < kReleases; ++i) {
          c_.check.Expect(
              nodedp::PrivateConnectedComponents(*warm_, 1.0, rng).ok(),
              "PrivateConnectedComponents on the warmed family");
        }
      }),
      "us", "release_p50_us");
  const char* approx_graph = c_.options.workload == Workload::kReleaseStream ? "big" : "g";
  Add("sublinear.approx_release_us", 1e6 / kReleases *
      Timed("sublinear.approx_release", [&] {
        for (int i = 0; i < kReleases; ++i) {
          c_.check.Expect(c_.server.ReleaseCcApprox(approx_graph, 1.0).ok(),
                          "ReleaseCcApprox");
        }
      }),
      "us", "releases_per_s@release_stream");
}

void Probes::ServeLayer() {
  const RegistrySnapshot& a = c_.after_setup;
  const RegistrySnapshot& b = c_.after_loop;
  for (const char* verb :
       {"release_cc", "release_sf", "sweep", "budget", "add_edges"}) {
    const std::string name = std::string("serve.request_us.") + verb;
    const bool update = std::string(verb) == "add_edges";
    // The timed mix holds no release_sf or budget: those two are the means
    // over the post-loop checks, which send them through the dispatcher.
    const bool in_loop = name != "serve.request_us.release_sf" &&
                         name != "serve.request_us.budget";
    c_.metrics.push_back(
        {name,
         HistogramMean(in_loop ? a : b, in_loop ? b : c_.after_checks,
                       "nodedp_request_ns",
                       std::string("{verb=\"") + verb + "\"}", 1e-3),
         "us", update ? "update_p50_ms" : "release_p50_us"});
  }
  Add("serve.update_apply_ms",
      HistogramMean(a, b, "nodedp_update_apply_ns", "", 1e-6), "ms",
      "update_p50_ms");
  Add("serve.update_publish_ms",
      HistogramMean(a, b, "nodedp_update_publish_ns", "", 1e-6), "ms",
      "update_p50_ms");
  Add("serve.update_rewarm_ms",
      HistogramMean(a, b, "nodedp_update_rewarm_ns", "", 1e-6), "ms",
      "update_p50_ms");
  Add("serve.cache_warm_waits",
      RegistryDelta(c_.at_start, b,
                    "nodedp_family_cache_events_total{event=\"warm_wait\"}"),
      "count", "release_p50_us");
  Add("parallel.queue_wait_ms",
      1e-6 * RegistryDelta(c_.at_start, c_.after_setup,
                           "nodedp_pool_queue_wait_ns_sum"),
      "ms", "setup_s@lp_warm");
  Add("parallel.warm_straggler_ms",
      1e-6 * RegistryDelta(c_.at_start, c_.after_setup,
                           "nodedp_family_warm_straggler_ns_sum"),
      "ms", "setup_s@lp_warm");
}

void Probes::Run() {
  ScopedSpan all(c_.tracer, "probes");
  GraphLayer();
  if (!c_.check.ok()) return;
  FamilyLayer();
  CellLayer();
  DpLayer();
  ServeLayer();
}

}  // namespace

void RunLayerProbes(ProbeContext& context) {
  Probes probes(context);
  probes.Run();
}

}  // namespace perfbench
