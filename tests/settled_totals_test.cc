// Tests for ExtensionFamily's settled per-Δ totals: a call whose Δs are all
// memoized must return exactly what the component walk returns — the same
// doubles, bit for bit — and count exactly the hits the walk counts. The
// memo is cleared by every cell publication and never inherited by the
// incremental constructor. The concurrent case runs under TSan in CI.

#include "core/extension_family.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "util/random.h"

namespace nodedp {
namespace {

// Path(5) is certified at Δ = 2 by a spanning path, so from then on every
// Δ >= 2 is a watermark hit; Star(6) has f_Δ < f_sf for every Δ < 6, so
// each of its cells runs the LP and lands in the value cache. The two
// components make the watermark/cache split of every call predictable.
Graph PathAndStar() { return gen::DisjointUnion({gen::Path(5), gen::Star(6)}); }

// A varied multi-component graph for the bit-identity cases.
Graph Blocks(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> parts;
  for (int i = 0; i < 8; ++i) {
    parts.push_back(gen::ErdosRenyi(12, 0.25, rng));
  }
  parts.push_back(gen::Complete(5));
  parts.push_back(gen::Path(7));
  return gen::DisjointUnion(parts);
}

long long Hits(const ExtensionFamily::Stats& stats) {
  return static_cast<long long>(stats.cache_hits) + stats.watermark_hits;
}

long long Settles(const ExtensionFamily::Stats& stats) {
  return static_cast<long long>(stats.lp_evaluations) +
         stats.fast_certificates;
}

TEST(SettledTotalsTest, RepeatedGridReadsAreBitIdenticalAndCountEveryPair) {
  const Graph g = Blocks(15001);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  ExtensionFamily family(g);
  ASSERT_TRUE(family.Warm(grid).ok());
  const auto first = family.Values(grid);
  ASSERT_TRUE(first.ok());
  const long long per_call =
      static_cast<long long>(grid.size()) * family.num_components();
  for (int call = 0; call < 5; ++call) {
    const auto before = family.stats();
    const auto values = family.Values(grid);
    const auto after = family.stats();
    ASSERT_TRUE(values.ok());
    EXPECT_EQ(*values, *first) << "call " << call;
    EXPECT_EQ(Hits(after) - Hits(before), per_call) << "call " << call;
    EXPECT_EQ(Settles(after), Settles(before)) << "call " << call;
    EXPECT_EQ(after.simplex_iterations, before.simplex_iterations);
  }
  // Value() is a one-Δ batch over the same memo.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto value = family.Value(grid[i]);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, (*first)[i]);
  }
}

TEST(SettledTotalsTest, RepeatedDeltaCountsAsTheWalkCountsIt) {
  const Graph g = PathAndStar();
  ExtensionFamily family(g);
  ASSERT_EQ(family.num_components(), 2);

  // Cold: Δ = 2 and Δ = 4 each settle both components (the path by
  // certificate, the star by LP); the repeated 2 finds both cells queued.
  const auto cold = family.Values({2.0, 2.0, 4.0});
  ASSERT_TRUE(cold.ok());
  auto stats = family.stats();
  EXPECT_EQ(stats.fast_certificates, 2);
  EXPECT_EQ(stats.lp_evaluations, 2);
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_EQ(stats.watermark_hits, 0);
  EXPECT_EQ((*cold)[0], (*cold)[1]);

  ExtensionFamily fresh(g);
  const auto distinct = fresh.Values({2.0, 4.0});
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ((*cold)[0], (*distinct)[0]);
  EXPECT_EQ((*cold)[2], (*distinct)[1]);

  // Warm: every occurrence counts the path as a watermark hit and the star
  // as a cache hit, the repeat included.
  const auto warm = family.Values({2.0, 2.0, 4.0});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, *cold);
  const auto warm_stats = family.stats();
  EXPECT_EQ(warm_stats.watermark_hits - stats.watermark_hits, 3);
  EXPECT_EQ(warm_stats.cache_hits - stats.cache_hits, 3);
  EXPECT_EQ(Settles(warm_stats), Settles(stats));
}

TEST(SettledTotalsTest, PublishClearsTheMemoWithoutChangingAnswers) {
  const Graph g = PathAndStar();
  ExtensionFamily family(g);

  // {1, 2}: four cells — the path's Δ = 1 and both star cells run the LP,
  // the path's Δ = 2 is certified.
  const auto first = family.Values({1.0, 2.0});
  ASSERT_TRUE(first.ok());
  const auto after_first = family.stats();
  EXPECT_EQ(after_first.lp_evaluations, 3);
  EXPECT_EQ(after_first.fast_certificates, 1);
  EXPECT_EQ(Hits(after_first), 0);

  // {4} publishes the star's Δ = 4 cell; the path is past its watermark.
  ASSERT_TRUE(family.Values({4.0}).ok());
  const auto after_publish = family.stats();
  EXPECT_EQ(after_publish.lp_evaluations, 4);
  EXPECT_EQ(after_publish.watermark_hits, 1);
  EXPECT_EQ(after_publish.cache_hits, 0);

  // {1, 2} again, after the publish: the path's Δ = 1 and the star are
  // cache hits, the path's Δ = 2 a watermark hit — twice, since the
  // second call reads the re-filled memo.
  for (int call = 0; call < 2; ++call) {
    const auto before = family.stats();
    const auto again = family.Values({1.0, 2.0});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first) << "call " << call;
    const auto after = family.stats();
    EXPECT_EQ(after.cache_hits - before.cache_hits, 3) << "call " << call;
    EXPECT_EQ(after.watermark_hits - before.watermark_hits, 1)
        << "call " << call;
    EXPECT_EQ(Settles(after), Settles(before)) << "call " << call;
  }

  // A fresh family answers the same sequence with the same bits and the
  // same cumulative stats.
  ExtensionFamily fresh(g);
  const auto fresh_first = fresh.Values({1.0, 2.0});
  ASSERT_TRUE(fresh_first.ok());
  EXPECT_EQ(*fresh_first, *first);
  ASSERT_TRUE(fresh.Values({4.0}).ok());
  const auto fresh_again = fresh.Values({1.0, 2.0});
  ASSERT_TRUE(fresh_again.ok());
  EXPECT_EQ(*fresh_again, *first);
  ASSERT_TRUE(fresh.Values({1.0, 2.0}).ok());
  const auto fresh_stats = fresh.stats();
  const auto stats = family.stats();
  EXPECT_EQ(fresh_stats.lp_evaluations, stats.lp_evaluations);
  EXPECT_EQ(fresh_stats.fast_certificates, stats.fast_certificates);
  EXPECT_EQ(fresh_stats.watermark_hits, stats.watermark_hits);
  EXPECT_EQ(fresh_stats.cache_hits, stats.cache_hits);
}

TEST(SettledTotalsTest, ConcurrentSettledReadsAgree) {
  const Graph g = Blocks(15002);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  ExtensionFamily family(g);
  ASSERT_TRUE(family.Warm(grid).ok());
  const auto expected = family.Values(grid);
  ASSERT_TRUE(expected.ok());
  const auto before = family.stats();

  constexpr int kThreads = 8;
  constexpr int kCalls = 200;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&family, &grid, &expected, &mismatches, t] {
      for (int call = 0; call < kCalls; ++call) {
        const auto values = family.Values(grid);
        if (!values.ok() || *values != *expected) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  const auto after = family.stats();
  EXPECT_EQ(Hits(after) - Hits(before),
            static_cast<long long>(kThreads) * kCalls *
                static_cast<long long>(grid.size()) * family.num_components());
  EXPECT_EQ(Settles(after), Settles(before));
}

TEST(SettledTotalsTest, IncrementalFamilyDoesNotInheritTheMemo) {
  const Graph g = Blocks(15003);
  const std::vector<double> grid = {1.0, 2.0, 4.0, 8.0};
  ExtensionFamily base(g);
  ASSERT_TRUE(base.Warm(grid).ok());
  const auto base_values = base.Values(grid);  // memoized
  ASSERT_TRUE(base_values.ok());

  // Fuse the first two blocks and the last two components: the merged
  // components' cells re-solve, and at least one total moves.
  const int n = g.NumVertices();
  const Result<Graph::EdgeDelta> delta =
      g.ApplyEdgeDelta({{0, 12}, {n - 1, n - 8}, {3, n - 2}});
  ASSERT_TRUE(delta.ok());
  ASSERT_FALSE(delta->added.empty());

  ExtensionFamily incremental(delta->graph, base, delta->added);
  ASSERT_GT(incremental.components_invalidated(), 0);
  ASSERT_TRUE(incremental.Warm(grid).ok());
  const auto values = incremental.Values(grid);
  ASSERT_TRUE(values.ok());
  const auto settled_read = incremental.Values(grid);
  ASSERT_TRUE(settled_read.ok());

  ExtensionFamily cold(delta->graph);
  const auto cold_values = cold.Values(grid);
  ASSERT_TRUE(cold_values.ok());
  EXPECT_EQ(*values, *cold_values);
  EXPECT_EQ(*settled_read, *cold_values);

  bool some_total_moved = false;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if ((*values)[i] != (*base_values)[i]) some_total_moved = true;
  }
  EXPECT_TRUE(some_total_moved);
}

}  // namespace
}  // namespace nodedp
