// S2 — release-server bench: the serving-path numbers behind docs/SERVING.md.
//
// Measures, on an entity-resolution workload (record cliques of size <= 4,
// public cap delta_max = 4):
//
//   cold_load_binary   streaming NDPG ingestion straight into CSR
//   cold_load_text     the text edge-list reader on the same graph
//   family_warm        ExtensionFamily construction + full-grid warm-up
//                      (the expensive, ε-independent part of a `load`)
//   family_construct   sharded ExtensionFamily construction on a
//                      multi-component workload, at 4 threads vs 1
//   warm_overlap       pipelined warm (induction overlapped with grid
//                      cells) vs the phased induce-then-warm sequence
//   warm_skew          cost-ordered (LPT) vs index-ordered warm on a
//                      skewed mix: one giant component at the top of the
//                      vertex range plus many small blocks, at 4 threads
//   warm_query         one ReleaseCc against the warmed server
//   warm_query_wide    the same on a ~10x wider graph (~10x the
//                      components): a warm release reads the settled
//                      per-Δ totals, so per-query ns should stay flat
//   tier_approx        one approx-tier release (sampled sublinear, no
//                      family) on a cold-loaded graph, vs the first exact
//                      query's family-build cost (tier_exact_cold)
//   sweep_warm         K-epsilon sweep on the warmed family (one server call)
//   sweep_oneshot      K independent one-shot PrivateConnectedComponents
//                      calls, each rebuilding the family — what serving
//                      would cost without the family cache
//
// Acceptance counters: sweep_speedup = sweep_oneshot / sweep_warm (bar:
// >= 3x at K = 8), construct_speedup = construct at 1 thread / 4 threads
// (bar: >= 2x — needs a machine with >= 4 cores to be meaningful; CI
// smoke boxes are narrower), tiered_speedup = tier_exact_cold /
// tier_approx (bar: >= 5x), and skew_speedup = index-ordered warm /
// cost-ordered warm on the skewed workload (bar: >= 1.3x at 4 threads).
// NODEDP_SERVE_STRICT makes any below-target counter fail the run.
//
// Emits BENCH_serve.json (schema nodedp-bench-v1, see bench/README.md).
// NODEDP_SERVE_VERTICES overrides the target vertex count (default 400,000;
// CI smoke uses a smaller value).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include <mutex>
#include <thread>

#include "core/extension_family.h"
#include "core/private_cc.h"
#include "eval/json_report.h"
#include "eval/table.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "serve/release_server.h"
#include "serve/socket_client.h"
#include "serve/socket_server.h"
#include "util/parallel.h"
#include "util/random.h"

namespace {

using namespace nodedp;
using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

long long TargetVertices() {
  const char* env = std::getenv("NODEDP_SERVE_VERTICES");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed >= 1000) return parsed;
  }
  return 400000;
}

constexpr int kSweepEpsilons = 8;
constexpr int kWarmQueries = 16;
constexpr int kDeltaMax = 4;  // public record-multiplicity cap

// Components an ExtensionFamily on `g` keeps state for (non-singletons):
// the deferred constructor's partition pass, no induction.
int FamilyComponents(const Graph& g, const ExtensionOptions& options) {
  return ExtensionFamily(g, options, ExtensionFamily::DeferInduction{})
      .num_components();
}

}  // namespace

int main() {
  const long long target = TargetVertices();
  std::printf("S2: serve bench, target vertices = %lld, sweep K = %d\n\n",
              target, kSweepEpsilons);

  JsonReport report("serve");
  report.SetContext("target_vertices", std::to_string(target));
  report.SetContext("sweep_epsilons", std::to_string(kSweepEpsilons));

  Table table({"stage", "ms", "notes"});
  bool all_ok = true;

  // Workload: entity-resolution clique unions (mean 2.5 records/entity).
  Rng gen_rng(42);
  const Graph graph =
      gen::RandomEntityGraph(static_cast<int>(target * 2 / 5), 4, gen_rng);
  std::printf("workload: n=%d m=%d\n", graph.NumVertices(), graph.NumEdges());

  const std::string binary_path = "/tmp/nodedp_bench_serve.ndpg";
  const std::string text_path = "/tmp/nodedp_bench_serve.txt";
  {
    const Status wb = WriteGraphBinaryFile(graph, binary_path);
    const Status wt = WriteEdgeListFile(graph, text_path);
    if (!wb.ok() || !wt.ok()) {
      std::fprintf(stderr, "failed to stage graph files\n");
      return 1;
    }
  }

  auto add_record = [&report](const std::string& name, double ns,
                              std::vector<std::pair<std::string, double>>
                                  counters) {
    BenchRecord record;
    record.name = "Serve/" + name;
    record.real_ns = ns;
    record.cpu_ns = ns;
    record.iterations = 1;
    record.counters = std::move(counters);
    report.Add(std::move(record));
  };

  // --- cold load: binary streaming vs text parsing -------------------------
  double binary_ns = 0.0;
  {
    const auto start = Clock::now();
    const Result<Graph> loaded = ReadGraphBinaryFile(binary_path);
    binary_ns = ElapsedNs(start);
    if (!loaded.ok() || loaded->NumEdges() != graph.NumEdges()) {
      std::fprintf(stderr, "binary load failed\n");
      return 1;
    }
    table.Cell("cold_load_binary")
        .Cell(binary_ns * 1e-6, 1)
        .Cell("NDPG -> CSR");
    table.EndRow();
    add_record("cold_load_binary", binary_ns,
               {{"vertices", graph.NumVertices()},
                {"edges", graph.NumEdges()}});
  }
  {
    const auto start = Clock::now();
    const Result<Graph> loaded = ReadEdgeListFile(text_path);
    const double text_ns = ElapsedNs(start);
    if (!loaded.ok() || loaded->NumEdges() != graph.NumEdges()) {
      std::fprintf(stderr, "text load failed\n");
      return 1;
    }
    table.Cell("cold_load_text").Cell(text_ns * 1e-6, 1).Cell("edge list");
    table.EndRow();
    add_record("cold_load_text", text_ns,
               {{"vertices", graph.NumVertices()},
                {"edges", graph.NumEdges()},
                {"binary_speedup", text_ns / binary_ns}});
  }

  // --- server load (family construction + warm) ----------------------------
  ReleaseServer server(7);
  ServeGraphConfig config;
  config.total_epsilon = 1e9;  // bench measures perf, not refusals
  config.release.delta_max = kDeltaMax;
  double warm_ns = 0.0;
  {
    const auto start = Clock::now();
    const Status loaded = server.LoadFromFile("g", binary_path, config);
    warm_ns = ElapsedNs(start);
    if (!loaded.ok()) {
      std::fprintf(stderr, "server load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    table.Cell("family_warm").Cell(warm_ns * 1e-6, 1).Cell("load + grid warm");
    table.EndRow();
    add_record("family_warm", warm_ns, {});
  }

  // --- warm queries ---------------------------------------------------------
  double warm_query_ns = 0.0;
  const int warm_components =
      FamilyComponents(graph, config.release.extension);
  {
    const auto start = Clock::now();
    for (int i = 0; i < kWarmQueries; ++i) {
      const auto release = server.ReleaseCc("g", 1.0);
      if (!release.ok()) {
        std::fprintf(stderr, "warm query failed: %s\n",
                     release.status().ToString().c_str());
        return 1;
      }
    }
    const double ns = ElapsedNs(start);
    warm_query_ns = ns / kWarmQueries;
    table.Cell("warm_query")
        .Cell(warm_query_ns * 1e-6, 3)
        .Cell("per ReleaseCc, warmed family");
    table.EndRow();
    add_record("warm_query", warm_query_ns,
               {{"queries", kWarmQueries}, {"components", warm_components}});
  }

  // --- tiered serving: approx tier vs cold exact tier ----------------------
  {
    // The tiered-serving acceptance measurement. A second registration of
    // the same graph (O(1): copies share the CSR backing), loaded with
    // prewarm off — the load_mmap serving shape, where the graph is
    // available immediately and no family exists yet. The approx tier
    // (sampled sublinear estimator) answers without ever building one;
    // the first exact query then pays the full family build + warm. The
    // honest comparison for repeated queries is exact_warm_ns (reported
    // alongside); tiered_speedup measures what the approx tier buys on a
    // graph nobody has warmed.
    ServeGraphConfig cold_config = config;
    cold_config.prewarm = false;
    const Status loaded = server.Load("tiered", graph, cold_config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "tiered load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    constexpr int kApproxQueries = 8;
    const auto approx_start = Clock::now();
    for (int q = 0; q < kApproxQueries; ++q) {
      const auto release = server.ReleaseCcApprox("tiered", 0.5);
      if (!release.ok()) {
        std::fprintf(stderr, "approx query failed: %s\n",
                     release.status().ToString().c_str());
        return 1;
      }
    }
    const double approx_ns = ElapsedNs(approx_start) / kApproxQueries;

    const auto exact_start = Clock::now();
    const auto exact = server.ReleaseCc("tiered", 0.5);
    const double exact_cold_ns = ElapsedNs(exact_start);
    if (!exact.ok()) {
      std::fprintf(stderr, "cold exact query failed: %s\n",
                   exact.status().ToString().c_str());
      return 1;
    }

    const double tiered_speedup = exact_cold_ns / approx_ns;
    table.Cell("tier_approx")
        .Cell(approx_ns * 1e-6, 3)
        .Cell("per approx release, no family");
    table.EndRow();
    table.Cell("tier_exact_cold")
        .Cell(exact_cold_ns * 1e-6, 1)
        .Cell("first exact query: family build + warm + release");
    table.EndRow();
    table.Cell("tiered_speedup")
        .Cell(tiered_speedup, 2)
        .Cell("exact_cold / approx (target >= 5)");
    table.EndRow();
    add_record("tier_approx", approx_ns,
               {{"queries", kApproxQueries},
                {"exact_cold_ns", exact_cold_ns},
                {"exact_warm_ns", warm_query_ns},
                {"tiered_speedup", tiered_speedup}});
    if (tiered_speedup < 5.0) {
      std::fprintf(stderr,
                   "WARNING: tiered speedup %.2fx below the 5x target\n",
                   tiered_speedup);
      all_ok = all_ok && std::getenv("NODEDP_SERVE_STRICT") == nullptr;
    }
  }

  // --- socket_hammer: concurrent clients over the TCP front end ------------
  {
    // connections x queries against the warmed server through a real
    // socket: measures the full request path (framing, dispatch, release,
    // reply) under concurrency, not just the mechanism. Per-request
    // latencies aggregate to p50/p99 — tail latency is what a slow client
    // of a multi-tenant release server actually experiences.
    constexpr int kConnections = 8;
    constexpr int kQueriesPerConn = 32;
    SocketServer socket_server(&server);
    const Status started = socket_server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "socket server failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::vector<double> latencies_ns;
    latencies_ns.reserve(kConnections * kQueriesPerConn);
    std::mutex latencies_mu;
    bool hammer_ok = true;
    const auto hammer_start = Clock::now();
    {
      std::vector<std::thread> clients;
      clients.reserve(kConnections);
      for (int c = 0; c < kConnections; ++c) {
        clients.emplace_back([&socket_server, &latencies_ns, &latencies_mu,
                              &hammer_ok] {
          auto client =
              SocketClient::Connect("127.0.0.1", socket_server.port());
          std::vector<double> mine;
          mine.reserve(kQueriesPerConn);
          bool ok = client.ok();
          for (int q = 0; ok && q < kQueriesPerConn; ++q) {
            const auto start = Clock::now();
            const auto response = client->Request("release_cc g 0.25");
            const double ns = ElapsedNs(start);
            ok = response.ok() && response->rfind("ok ", 0) == 0;
            mine.push_back(ns);
          }
          std::lock_guard<std::mutex> lock(latencies_mu);
          if (!ok) hammer_ok = false;
          latencies_ns.insert(latencies_ns.end(), mine.begin(), mine.end());
        });
      }
      for (std::thread& t : clients) t.join();
    }
    const double hammer_ns = ElapsedNs(hammer_start);
    socket_server.Stop();
    if (!hammer_ok ||
        latencies_ns.size() !=
            static_cast<std::size_t>(kConnections * kQueriesPerConn)) {
      std::fprintf(stderr, "socket hammer failed\n");
      return 1;
    }
    std::sort(latencies_ns.begin(), latencies_ns.end());
    const auto percentile = [&latencies_ns](double p) {
      const std::size_t at = std::min(
          latencies_ns.size() - 1,
          static_cast<std::size_t>(p * (latencies_ns.size() - 1) + 0.5));
      return latencies_ns[at];
    };
    const double p50_ns = percentile(0.50);
    const double p99_ns = percentile(0.99);
    table.Cell("socket_hammer")
        .Cell(hammer_ns * 1e-6, 1)
        .Cell("8 conns x 32 release_cc");
    table.EndRow();
    table.Cell("socket_p50/p99")
        .Cell(p50_ns * 1e-6, 3)
        .Cell("p99 = " + std::to_string(p99_ns * 1e-6) + " ms");
    table.EndRow();
    add_record("socket_hammer", hammer_ns,
               {{"connections", kConnections},
                {"queries", kConnections * kQueriesPerConn},
                {"p50_ns", p50_ns},
                {"p99_ns", p99_ns}});
  }

  // --- family_construct: sharded construction, 4 threads vs 1 --------------
  {
    // Multi-component construct workload: ~target vertices in 1000-vertex
    // G(n, p) blocks, chunky enough that per-component induction dominates
    // the O(n+m) partition pass and shards evenly across the pool. (The
    // entity graph's <= 4-vertex cliques would measure dispatch overhead,
    // not induction.)
    Rng block_rng(17);
    const int block_size = 1000;
    const int num_blocks =
        std::max(4, static_cast<int>(target / block_size));
    std::vector<Graph> blocks;
    blocks.reserve(num_blocks);
    for (int b = 0; b < num_blocks; ++b) {
      blocks.push_back(
          gen::ErdosRenyi(block_size, 6.0 / block_size, block_rng));
    }
    const Graph multi = gen::DisjointUnion(blocks);

    constexpr int kConstructReps = 3;
    const auto construct_ns = [&multi](int threads) {
      ThreadPool pool(threads);
      ScopedThreadPool scoped(&pool);
      double best = 0.0;
      for (int rep = 0; rep < kConstructReps; ++rep) {
        const auto start = Clock::now();
        const ExtensionFamily family(multi, {});
        const double ns = ElapsedNs(start);
        if (rep == 0 || ns < best) best = ns;
      }
      return best;
    };
    const double t1 = construct_ns(1);
    const double t4 = construct_ns(4);
    const double construct_speedup = t1 / t4;
    table.Cell("family_construct")
        .Cell(t4 * 1e-6, 2)
        .Cell("sharded, 4 threads");
    table.EndRow();
    table.Cell("construct_speedup")
        .Cell(construct_speedup, 2)
        .Cell("1 thread / 4 threads (target >= 2)");
    table.EndRow();
    add_record("family_construct", t4,
               {{"construct_t1_ns", t1},
                {"construct_speedup", construct_speedup},
                {"vertices", multi.NumVertices()},
                {"edges", multi.NumEdges()}});
    if (construct_speedup < 2.0) {
      std::fprintf(stderr,
                   "WARNING: construct speedup %.2fx below the 2x target "
                   "(meaningful only on >= 4 cores)\n",
                   construct_speedup);
      all_ok = all_ok && std::getenv("NODEDP_SERVE_STRICT") == nullptr;
    }
  }

  // --- warm_overlap: pipelined warm vs phased induce-then-warm -------------
  {
    PrivateCcOptions options;
    options.delta_max = kDeltaMax;
    const std::vector<double> grid =
        AlgorithmOneDeltaGrid(graph.NumVertices(), options);

    // Phased: eager construction (an induction barrier), then the warm.
    const auto phased_start = Clock::now();
    ExtensionFamily phased(graph, options.extension);
    if (!phased.Values(grid).ok()) {
      std::fprintf(stderr, "phased warm failed\n");
      return 1;
    }
    const double phased_ns = ElapsedNs(phased_start);

    // Pipelined: deferred construction; every grid cell induces its
    // component on first touch, overlapping induction with fast-path
    // probes and LP solves.
    const auto pipelined_start = Clock::now();
    ExtensionFamily pipelined(graph, options.extension,
                              ExtensionFamily::DeferInduction{});
    if (!pipelined.Warm(grid).ok()) {
      std::fprintf(stderr, "pipelined warm failed\n");
      return 1;
    }
    const double pipelined_ns = ElapsedNs(pipelined_start);

    const double overlap = phased_ns / pipelined_ns;
    table.Cell("warm_overlap")
        .Cell(pipelined_ns * 1e-6, 1)
        .Cell("pipelined warm (phased / pipelined shown below)");
    table.EndRow();
    table.Cell("overlap_gain").Cell(overlap, 2).Cell("phased / pipelined");
    table.EndRow();
    add_record("warm_overlap", pipelined_ns,
               {{"phased_ns", phased_ns}, {"warm_overlap", overlap}});
  }

  // --- the acceptance comparison: warm sweep vs one-shot releases ----------
  std::vector<double> epsilons;
  for (int i = 0; i < kSweepEpsilons; ++i) {
    epsilons.push_back(0.25 * (i + 1));  // 0.25 .. 2.0
  }

  double sweep_ns = 0.0;
  {
    const auto start = Clock::now();
    const auto releases = server.SweepCc("g", epsilons);
    sweep_ns = ElapsedNs(start);
    if (!releases.ok() ||
        static_cast<int>(releases->size()) != kSweepEpsilons) {
      std::fprintf(stderr, "sweep failed\n");
      return 1;
    }
    table.Cell("sweep_warm").Cell(sweep_ns * 1e-6, 1).Cell("8 eps, one family");
    table.EndRow();
  }

  double oneshot_ns = 0.0;
  {
    PrivateCcOptions options;
    options.delta_max = kDeltaMax;
    Rng rng(7);
    const auto start = Clock::now();
    for (double epsilon : epsilons) {
      // The pre-family serving shape: every call rebuilds the extension
      // family from the graph (the one-shot overload).
      const auto release =
          PrivateConnectedComponents(graph, epsilon, rng, options);
      if (!release.ok()) {
        std::fprintf(stderr, "one-shot release failed: %s\n",
                     release.status().ToString().c_str());
        return 1;
      }
    }
    oneshot_ns = ElapsedNs(start);
    table.Cell("sweep_oneshot")
        .Cell(oneshot_ns * 1e-6, 1)
        .Cell("8 independent one-shot calls");
    table.EndRow();
  }

  const double speedup = oneshot_ns / sweep_ns;
  add_record("sweep_warm", sweep_ns,
             {{"epsilons", kSweepEpsilons},
              {"oneshot_ns", oneshot_ns},
              {"sweep_speedup", speedup}});
  add_record("sweep_oneshot", oneshot_ns, {{"epsilons", kSweepEpsilons}});
  table.Cell("speedup").Cell(speedup, 2).Cell("oneshot / warm (target >= 3)");
  table.EndRow();
  if (speedup < 3.0) {
    // Report loudly but do not fail the run: CI smoke boxes are noisy. The
    // acceptance measurement is the full-size local run.
    std::fprintf(stderr,
                 "WARNING: warm-sweep speedup %.2fx below the 3x target\n",
                 speedup);
    all_ok = all_ok && std::getenv("NODEDP_SERVE_STRICT") == nullptr;
  }

  // --- warm_query_wide: the warm query at ~10x the components -------------
  {
    // Same entity workload, ten times the entities. A warm ReleaseCc reads
    // |grid| memoized totals, not every component, so the per-query time
    // should match warm_query's; wide_ratio = wide / warm_query shows it.
    // The wide graph is evicted right after, before warm_skew.
    Rng wide_rng(43);
    const Graph wide = gen::RandomEntityGraph(
        static_cast<int>(target * 4), 4, wide_rng);
    const int wide_components =
        FamilyComponents(wide, config.release.extension);
    const Status loaded = server.Load("wide", wide, config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "wide load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    const auto start = Clock::now();
    for (int i = 0; i < kWarmQueries; ++i) {
      const auto release = server.ReleaseCc("wide", 1.0);
      if (!release.ok()) {
        std::fprintf(stderr, "wide warm query failed: %s\n",
                     release.status().ToString().c_str());
        return 1;
      }
    }
    const double wide_ns = ElapsedNs(start) / kWarmQueries;
    if (!server.Evict("wide").ok()) {
      std::fprintf(stderr, "wide evict failed\n");
      return 1;
    }
    const double wide_ratio = wide_ns / warm_query_ns;
    table.Cell("warm_query_wide")
        .Cell(wide_ns * 1e-6, 3)
        .Cell("per ReleaseCc, " + std::to_string(wide_components) +
              " components (warm_query: " + std::to_string(warm_components) +
              ")");
    table.EndRow();
    add_record("warm_query_wide", wide_ns,
               {{"queries", kWarmQueries},
                {"components", wide_components},
                {"wide_ratio", wide_ratio}});
  }

  // --- warm_skew: cost-ordered (LPT) vs index-ordered warm, 4 threads ------
  {
    // Adversarially skewed component mix: one giant G(n, p) block appended
    // LAST to the disjoint union, so it owns the top of the vertex range
    // and index-ordered dispatch reaches its cells at the very end — the
    // schedule where every other thread drains the tiny blocks and then
    // idles behind the giant straggler. Cost order (LPT by |C| + m_C)
    // claims the giant first and back-fills the tiny blocks around it.
    // Sizes are FIXED (this is a scheduling bench, not a scale bench — and
    // per-cell LP cost grows ~cubically, so the giant must stay small):
    // the giant's critical path sits near a third of the tiny work, the
    // regime where LPT's win over index order is largest at 4 threads.
    // Like construct_speedup, the counter is meaningful only on a machine
    // with >= 4 real cores. Runs LAST: its giant-component warms churn the
    // allocator enough to perturb the stages that follow them, so nothing
    // may follow.
    Rng skew_rng(23);
    const int giant_vertices = 600;
    const int tiny_size = 150;
    const int tiny_blocks = 54;
    std::vector<Graph> parts;
    parts.reserve(tiny_blocks + 1);
    for (int b = 0; b < tiny_blocks; ++b) {
      parts.push_back(gen::ErdosRenyi(tiny_size, 5.0 / tiny_size, skew_rng));
    }
    parts.push_back(
        gen::ErdosRenyi(giant_vertices, 6.0 / giant_vertices, skew_rng));
    const Graph skew = gen::DisjointUnion(parts);

    PrivateCcOptions options;
    options.delta_max = kDeltaMax;
    const std::vector<double> grid =
        AlgorithmOneDeltaGrid(skew.NumVertices(), options);

    constexpr int kSkewReps = 2;
    bool skew_ok = true;
    const auto skew_warm_ns = [&skew, &grid, &options, &skew_ok](
                                  ExtensionOptions::DispatchOrder order) {
      ExtensionOptions ext = options.extension;
      ext.dispatch_order = order;
      ThreadPool pool(4);
      ScopedThreadPool scoped(&pool);
      double best = 0.0;
      for (int rep = 0; rep < kSkewReps; ++rep) {
        const auto start = Clock::now();
        ExtensionFamily family(skew, ext, ExtensionFamily::DeferInduction{});
        if (!family.Warm(grid).ok()) {
          skew_ok = false;
          return 0.0;
        }
        const double ns = ElapsedNs(start);
        if (rep == 0 || ns < best) best = ns;
      }
      return best;
    };
    const double skew_cost_ns =
        skew_warm_ns(ExtensionOptions::DispatchOrder::kCostOrdered);
    const double skew_index_ns =
        skew_warm_ns(ExtensionOptions::DispatchOrder::kIndexOrdered);
    if (!skew_ok) {
      std::fprintf(stderr, "skew warm failed\n");
      return 1;
    }
    const double skew_speedup = skew_index_ns / skew_cost_ns;
    table.Cell("warm_skew")
        .Cell(skew_cost_ns * 1e-6, 1)
        .Cell("cost-ordered warm, 4 threads");
    table.EndRow();
    table.Cell("skew_speedup")
        .Cell(skew_speedup, 2)
        .Cell("index-ordered / cost-ordered (target >= 1.3)");
    table.EndRow();
    add_record("warm_skew", skew_cost_ns,
               {{"index_ns", skew_index_ns},
                {"skew_speedup", skew_speedup},
                {"components", tiny_blocks + 1},
                {"giant_vertices", giant_vertices},
                {"vertices", skew.NumVertices()},
                {"edges", skew.NumEdges()}});
    if (skew_speedup < 1.3) {
      std::fprintf(stderr,
                   "WARNING: skew speedup %.2fx below the 1.3x target "
                   "(meaningful only on >= 4 cores)\n",
                   skew_speedup);
      all_ok = all_ok && std::getenv("NODEDP_SERVE_STRICT") == nullptr;
    }
  }


  table.Print(std::cout);

  std::remove(binary_path.c_str());
  std::remove(text_path.c_str());

  const std::string path = BenchJsonPath("serve");
  const Status written = report.WriteFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%d records)\n", path.c_str(), report.num_records());
  return all_ok ? 0 : 1;
}
