// ExtensionFamily: amortized evaluation of the whole family {f_Δ} on one
// fixed graph — the access pattern of Algorithm 1 (the GEM grid sweeps
// Δ ∈ {1, 2, 4, ..., Δmax}) and of every experiment that runs many noise
// trials on the same input.
//
// Amortizations, all exact (never change any returned value):
//   * per-component decomposition, done once;
//   * value cache keyed by Δ;
//   * settled per-Δ totals: once every component of a Δ is settled, the
//     call's totals loop memoizes f_Δ(G) together with its watermark/cache
//     hit split, so a later call whose Δs are all memoized reads |deltas|
//     numbers instead of walking every component. Any cell publication
//     clears the memo: a publish never changes a total, but it can move a
//     component from the cache count to the watermark count, and the
//     re-fill keeps stats() exactly what the component walk reports;
//   * monotone exactness watermark: f_Δ0 = f_sf (for a component) implies
//     f_Δ = f_sf for all Δ >= Δ0 by monotonicity + underestimation
//     (Lemma 3.3), so at most one Δ per component ever pays for the
//     certificate;
//   * subtour-cut pool shared across Δ: constraints (5) do not mention Δ,
//     so cuts separated at one Δ pre-tighten the LP at every other Δ;
//   * fast-path certificate via Algorithm 3 repair + Fürer–Raghavachari-
//     style local search (core/degree_improve.h), skipping the LP wherever
//     a spanning Δ-forest is found.
//
// Construction is sharded: one O(n + m) ComponentLabels pass partitions the
// vertices, each component's spanning-forest size is |C| − 1 by the
// connectivity invariant (no per-component union-find pass), and the
// per-component subgraph inductions run concurrently on the current thread
// pool. Induction is also *lazy*: the deferred constructor records only the
// partition, and each component is induced at most once — by the first cell
// evaluation that needs it (std::call_once) — so a Warm() over the Δ grid
// pipelines induction, fast-path probes, and LP solves instead of running
// them as serial phases. The host-graph copy kept for lazy induction is
// released as soon as every component has been induced.
//
// Scheduling is cost-aware (docs/ARCHITECTURE.md "Scheduling"). Every
// component carries the weight |C| + m_C (free: both terms fall out of the
// partition pass). Eager inductions dispatch largest-first, and a batch's
// unsettled cells dispatch by estimated LP cost — component weight times
// the component's unsolved cells in the batch — so on power-law-skewed
// inputs the giant component starts immediately instead of serializing the
// tail behind a pool-width's worth of luck. On top of that, warming is
// *demand-first*: a Values() caller that finds its cell claimed by a
// concurrent batch bumps that cell to the front of the owner's claim
// queue, and each cell's value is published (and its in-flight claim
// released) the moment the cell settles — so queries racing a warm
// unblock as early as possible rather than at the end of the owner's
// whole batch. None of this changes any result: cells still write
// index-addressed slots, values/watermarks are order-independent, and the
// order-sensitive cut-pool merge still happens in fixed cell order.

#ifndef NODEDP_CORE_EXTENSION_FAMILY_H_
#define NODEDP_CORE_EXTENSION_FAMILY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/forest_polytope.h"
#include "core/lipschitz_extension.h"
#include "graph/graph.h"
#include "util/status.h"

namespace nodedp {

// Thread safety: Value(), Values(), Warm(), stats(), and MemoryBytes() may
// be called concurrently from multiple threads (e.g. parallel noise trials
// sharing one warmed family, or queries arriving while a load-time warm is
// still running). Cache/watermark/cut-pool/stats mutations happen under an
// internal mutex; the expensive cell evaluations run outside it against
// immutable snapshots. Unsettled (component, Δ) cells are claimed through
// an in-flight registry, so concurrent callers never duplicate an LP solve:
// a caller that needs a cell another caller is already evaluating blocks on
// exactly that cell — not on the whole batch. Returned values are identical
// regardless of interleaving (the LP optimum does not depend on which valid
// cuts seed it). The settled-totals memo lives under the same mutex: a
// call that finds all its Δs memoized takes the lock once and returns the
// stored doubles — the very ones the component walk summed, so memoized
// and walked answers are bit-identical. stats() returns a snapshot copy
// taken under the same mutex, so it is safe to call while queries are in
// flight (the serving layer does).
class ExtensionFamily {
 public:
  // Tag selecting the deferred constructor: record the component partition
  // (one O(n + m) labels pass) but induce nothing. Induction then happens
  // lazily, per component, on first use — Warm()/WarmAsync() exploit this
  // to overlap induction with grid-cell evaluation.
  struct DeferInduction {};

  // Copies the components of interest out of `g`, so the family owns its
  // inputs and cannot dangle. Inductions run concurrently on the current
  // thread pool; the resulting family is identical at any width.
  explicit ExtensionFamily(const Graph& g,
                           const ExtensionOptions& options = {});

  // Deferred variant: partitions but does not induce. Keeps a copy of `g`
  // until every component has been induced (MemoryBytes() reports it).
  ExtensionFamily(const Graph& g, const ExtensionOptions& options,
                  DeferInduction);

  // Incremental (streaming-update) constructor: builds the family for
  // `graph`, which MUST be `base`'s graph with exactly `inserts` applied —
  // normalized u < v edges that are actually new, i.e. the `added` list of
  // Graph::ApplyEdgeDelta. Components the batch does not touch adopt
  // base's state wholesale (induced subgraph, value cache, monotone
  // watermark, cut pool): an insert-only delta never changes an untouched
  // component's vertex or edge set, so the adopted cells stay exact.
  // Components the batch merges or edits are rebuilt cold, with lazy
  // induction from `graph` — a following Warm(grid) therefore re-solves
  // exactly the invalidated (component, Δ) cells and hits cache on every
  // adopted one, and queries arriving mid-re-warm block only on
  // invalidated cells through the usual in-flight registry. `base` may be
  // serving queries or warming concurrently: its mutable state is copied
  // under its lock; cells still in flight there are simply not adopted and
  // re-solve here to the same values. Values()/Warm() results are
  // bit-identical to a cold rebuild on `graph`.
  ExtensionFamily(const Graph& graph, const ExtensionFamily& base,
                  const std::vector<Edge>& inserts);

  // Joins an in-flight WarmAsync() thread, if any.
  ~ExtensionFamily();

  ExtensionFamily(const ExtensionFamily&) = delete;
  ExtensionFamily& operator=(const ExtensionFamily&) = delete;

  // f_Δ(G). Cached; requires delta >= 1. Fails only on LP resource
  // exhaustion. Equivalent to Values({delta}) — a one-Δ batch — so it
  // shares cells with concurrent batches instead of re-solving them.
  Result<double> Value(double delta);

  // Evaluates the whole grid at once — the Algorithm 4 access pattern — and
  // returns f_Δ(G) for each delta, in input order. When every delta's total
  // is memoized (see "settled per-Δ totals" above) the call is O(|deltas|):
  // one lock, the stored hit counts added to stats(), no component walk.
  // Otherwise it plans the batch, each distinct delta once. Unsettled
  // (component, Δ) cells are solved concurrently on the current thread
  // pool; each cell works against a snapshot of the family taken before the
  // batch (cut pool, watermark, fast-path floor), and the cells' updates
  // are merged back in a fixed order afterwards. Both the returned values
  // and the post-call family state are therefore bit-identical at any
  // thread count. Cells already being evaluated by a concurrent caller are
  // not re-solved: this call blocks until those cells settle and reads the
  // merged results. Requires every delta >= 1; fails only on LP resource
  // exhaustion.
  //
  // Relative to sequential Value() calls the batch trades a little
  // amortization for parallelism: cells do not see cuts or watermarks
  // discovered by other cells of the same batch (they are still shared with
  // every later call). Values are unaffected — the LP optimum does not
  // depend on which valid cuts seed it.
  Result<std::vector<double>> Values(const std::vector<double>& deltas);

  // Evaluates every Δ in `grid` (the load-time warm). On a deferred family
  // this pipelines the stages: a cell's evaluation induces its component on
  // first touch, so early components' fast-path probes and LP solves run
  // while later components are still being induced. Equivalent to Values()
  // in every observable way (same cells, same merge order, same resulting
  // state); only the Status is returned.
  Status Warm(const std::vector<double>& grid);

  // Starts Warm(grid) on a background thread and returns immediately.
  // Queries issued meanwhile are safe and block only on the cells they
  // need (see Values). At most one async warm may be in flight; the
  // destructor joins it. Collect the outcome with WaitWarm().
  void WarmAsync(std::vector<double> grid);

  // Blocks until the WarmAsync() warm finishes and returns its Status.
  // OK if WarmAsync was never called.
  Status WaitWarm();

  // f_sf(G) (the non-private true value; used to build GEM scores).
  double SpanningForestSizeValue() const { return f_sf_total_; }

  int num_vertices() const { return num_vertices_; }
  const ExtensionOptions& options() const { return options_; }

  // Non-singleton components in the partition (fixed at construction).
  int num_components() const { return static_cast<int>(components_.size()); }

  // Incremental-constructor telemetry: components adopted from the base
  // family vs rebuilt because the delta touched them. Both zero for
  // cold-built families.
  int components_adopted() const { return components_adopted_; }
  int components_invalidated() const { return components_invalidated_; }

  // Heap footprint: component graphs (plus the host-graph copy while lazy
  // induction still needs it), partition vertex lists, cut pools, the
  // per-Δ value caches, and the settled totals. Safe to call while queries are in flight; feeds
  // the serving layer's cache-eviction policy.
  std::size_t MemoryBytes() const;

  // Cumulative work statistics across all Value() calls.
  struct Stats {
    int lp_evaluations = 0;    // component evaluations that ran the LP
    int fast_certificates = 0; // component evaluations settled by a forest
    int watermark_hits = 0;    // settled by the monotone watermark
    int cache_hits = 0;
    int cut_rounds = 0;
    int cuts_added = 0;
    long long simplex_iterations = 0;
  };
  // Snapshot copy, taken under the internal mutex (all mutations happen
  // under it too), so concurrent callers see a consistent view.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct ComponentState {
    // Host-graph ids of this component, sorted ascending. The lazy
    // induction input; retained afterwards so MemoryBytes() never races an
    // in-flight induction. Empty for the whole-graph pseudo-component of
    // decompose_components = false.
    std::vector<int> vertices;
    // |C| - 1, by the connectivity invariant — no spanning-forest pass.
    double f_sf = 0.0;
    // |C| + m_C — the LPT cost estimate driving induction and cell
    // dispatch order. Both terms fall out of the partition pass (m_C from
    // the degree sum), so it costs no extra traversal. Fixed after
    // construction.
    double weight = 0.0;
    // The induced subgraph. Written once, inside `induce_once`; readable
    // once `induced` is true (acquire/release pairing).
    Graph graph;
    std::once_flag induce_once;
    std::atomic<bool> induced{false};
    // Smallest Δ known to satisfy f_Δ = f_sf (monotone watermark).
    double exact_from = std::numeric_limits<double>::infinity();
    // Largest integer cap where the fast-path forest search already failed
    // (skip re-running the heuristic below it; purely an optimization).
    int fast_path_failed_at = 0;
    std::vector<std::vector<int>> cut_pool;
    std::map<double, double> cached;
    // Δs of this component currently being evaluated by some Values()
    // batch, sorted ascending (guarded by mu_). A concurrent caller that
    // needs one waits on cells_cv_ instead of duplicating the solve. Kept
    // per component — a handful of grid Δs at most — so claim/release is
    // allocation-free on the warm path.
    std::vector<double> inflight_deltas;
  };

  // The shared front half of both constructors: one ComponentLabels pass
  // partitions the vertices, sets every component's f_sf to |C| - 1 and
  // weight to |C| + m_C, and derives f_sf_total_ = n - #components — the
  // constructor's only whole-graph traversal. `retain_host` copies g into
  // host_graph_ for lazy induction (the deferred constructor); the eager
  // constructor induces straight from its argument instead.
  void InitComponents(const Graph& g, bool retain_host);

  // Sets every component's weight to |C| + m_C from `host`'s degrees —
  // the incremental constructor's weight pass (InitComponents computes
  // weights inline; the incremental path assembles components_ itself).
  void AssignComponentWeights(const Graph& host);

  // Claim order for the eager constructor's induction loop and for batch
  // cells: indices sorted by descending cost, ties broken ascending so the
  // order is deterministic. Identity when options_.dispatch_order is
  // kIndexOrdered.
  std::vector<std::int64_t> CostOrder(
      const std::vector<double>& costs) const;

  // Induces `component` from `host`, exactly once across all threads
  // (later callers return immediately, or wait for the one in-flight
  // induction). Debug builds CHECK the |C| - 1 invariant. The eager
  // constructor passes its argument directly (no host copy is ever made);
  // lazy callers pass the retained host_graph_.
  void EnsureInduced(ComponentState& component, const Graph& host);

  // Drops the host-graph copy once every component has been induced.
  // Requires mu_; safe against concurrent inductions because the atomic
  // countdown in EnsureInduced orders every host-graph read before the
  // zero observed here.
  void MaybeReleaseHostGraphLocked();

  // One unsettled (component, Δ) cell of a Values() batch, planned under
  // the lock with snapshots of the mutable component state it reads.
  struct CellTask {
    int component;
    double delta;
    int fast_path_failed_at;               // snapshot
    std::vector<std::vector<int>> pool;    // snapshot of the cut pool
  };

  // The cell's result. Mutations are returned for the deterministic merge
  // instead of applied in place.
  struct CellOutcome {
    bool ok = true;
    std::string error;
    bool fast_certificate = false;  // value == f_sf, certified by a forest
    double value = 0.0;
    int fast_path_failed_at = 0;
    int cut_rounds = 0;
    int cuts_added = 0;
    long long simplex_iterations = 0;
    std::vector<std::vector<int>> new_cuts;
  };

  // One memoized per-Δ total, filled by Values()'s totals loop from the
  // final state: `watermark_hits` counts components with delta >=
  // exact_from, `cache_hits` the rest (each has a cached value at delta) —
  // the split a planning pass over that state would count.
  struct SettledTotal {
    double delta;
    double total;
    int watermark_hits;
    int cache_hits;
  };

  // The memo entry for `delta`, or nullptr. Requires mu_.
  SettledTotal* FindSettledLocked(double delta);

  // Runs outside the lock: touches only the task's snapshots and the
  // component fields that are immutable after induction (graph, f_sf).
  CellOutcome EvaluateCell(const ComponentState& component,
                           CellTask& task) const;

  // Per-batch dynamic claim queue (defined in the .cc): LPT order with a
  // demand-first fast lane that concurrent callers awaiting a cell push
  // into. Shared between the owning batch's workers and the registry below.
  struct BatchQueue;

  // Evaluates a planned batch's cells on the pool (publishing each as it
  // settles), then takes `lock` (on mu_, unlocked on entry) and merges the
  // order-sensitive remainder — cut pools and cumulative stats — in fixed
  // cell order. Returns with `lock` held: the first failed cell's error,
  // or OK.
  Status EvaluateBatch(std::vector<CellTask>& cells,
                       const std::shared_ptr<BatchQueue>& queue,
                       std::unique_lock<std::mutex>& lock);

  // Publishes one settled cell under mu_ — value cache, watermark,
  // fast-path floor — releases its in-flight claim so awaiting callers
  // unblock per cell, not per batch, and clears the settled-totals memo.
  // Order-independent by construction: cache insert of a uniquely-owned
  // key, min over the watermark, max over the floor, and a clear. The
  // order-sensitive cut-pool append stays in the batch's fixed-order merge.
  void PublishCellLocked(const CellTask& cell, const CellOutcome& outcome);

  int num_vertices_ = 0;
  double f_sf_total_ = 0.0;
  ExtensionOptions options_;
  int components_adopted_ = 0;
  int components_invalidated_ = 0;

  // Lazy-induction support: the host graph retained until every component
  // has been induced, and the countdown that tells us when that is.
  Graph host_graph_;
  std::atomic<int> remaining_inductions_{0};

  mutable std::mutex mu_;
  bool host_released_ = true;  // guarded by mu_
  // unique_ptr elements because ComponentState holds a std::once_flag.
  std::vector<std::unique_ptr<ComponentState>> components_;
  // Signaled whenever a batch releases its in-flight cells (see
  // ComponentState::inflight_deltas).
  std::condition_variable cells_cv_;
  // Callers currently parked on cells_cv_, guarded by mu_. Per-cell
  // publication only broadcasts when this is non-zero, so the uncontended
  // warm never pays a notify per cell.
  int cell_waiters_ = 0;
  // Live batch queues, guarded by mu_ — one entry per Values() batch with
  // unclaimed cells, registered at planning, deregistered at that batch's
  // merge. An awaiting caller asks each live batch for its cell (an
  // immutable per-batch sorted index, so registration is one bulk build
  // instead of a map node per cell) and bumps it to the front of the
  // owner's queue (demand-first warming). Lock order: mu_ then the queue's
  // own mutex, never the reverse.
  std::vector<std::shared_ptr<BatchQueue>> inflight_batches_;
  // Settled per-Δ totals, guarded by mu_: one entry per memoized Δ (a grid's
  // worth at most between publications). Never copied by the incremental
  // constructor — its own re-warm fills a fresh one.
  std::vector<SettledTotal> settled_;
  Stats stats_;

  // WarmAsync state.
  std::mutex warm_mu_;
  std::condition_variable warm_cv_;
  bool warm_done_ = true;      // guarded by warm_mu_
  Status warm_status_;         // guarded by warm_mu_
  std::thread warm_thread_;
};

}  // namespace nodedp

#endif  // NODEDP_CORE_EXTENSION_FAMILY_H_
