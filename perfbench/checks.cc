#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

void Checker::Expect(bool ok, const std::string& what) {
  ++checked_;
  if (!ok && failures_.size() < 20) failures_.push_back(what);
  if (!ok && failures_.size() == 20) failures_.push_back("...");
}

namespace {

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, a, b, c);
  return buffer;
}

struct UnionFind {
  explicit UnionFind(int n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent[a] = b;
    return true;
  }
  std::vector<int> parent;
};

// Own CSR adjacency.
struct Adjacency {
  explicit Adjacency(const InputGraph& g) : offset(g.n + 1, 0) {
    for (const auto& [u, v] : g.edges) {
      ++offset[u + 1];
      ++offset[v + 1];
    }
    for (int v = 0; v < g.n; ++v) offset[v + 1] += offset[v];
    target.resize(offset[g.n]);
    std::vector<int> fill(offset.begin(), offset.end() - 1);
    for (const auto& [u, v] : g.edges) {
      target[fill[u]++] = v;
      target[fill[v]++] = u;
    }
  }
  std::vector<int> offset, target;
};

// Spanning forest by DFS that always steps to the unvisited neighbour with
// the fewest unvisited neighbours (Warnsdorff's rule), which tends to walk
// long paths and keep tree degrees low. Returns each vertex's tree degree.
std::vector<int> LowDegreeTreeDegrees(const Adjacency& adj, int n) {
  std::vector<char> visited(n, 0);
  std::vector<int> degree(n, 0);
  std::vector<int> stack;
  auto unvisited_neighbours = [&](int v) {
    int count = 0;
    for (int k = adj.offset[v]; k < adj.offset[v + 1]; ++k) {
      count += !visited[adj.target[k]];
    }
    return count;
  };
  for (int root = 0; root < n; ++root) {
    if (visited[root]) continue;
    visited[root] = 1;
    stack.assign(1, root);
    while (!stack.empty()) {
      const int u = stack.back();
      int best = -1, best_count = 0;
      for (int k = adj.offset[u]; k < adj.offset[u + 1]; ++k) {
        const int w = adj.target[k];
        if (visited[w]) continue;
        const int count = unvisited_neighbours(w);
        if (best < 0 || count < best_count) {
          best = w;
          best_count = count;
        }
      }
      if (best < 0) {
        stack.pop_back();
        continue;
      }
      visited[best] = 1;
      ++degree[u];
      ++degree[best];
      stack.push_back(best);
    }
  }
  return degree;
}

// Hopcroft–Karp maximum matching of the bipartite double cover (left copy
// of u adjacent to the right copies of u's neighbours).
int DoubleCoverMatching(const Adjacency& adj, int n) {
  constexpr int kFree = -1;
  std::vector<int> match_left(n, kFree), match_right(n, kFree), dist(n);
  std::vector<int> queue(n);
  std::vector<int> cursor(n);
  auto bfs = [&]() {
    int head = 0, tail = 0;
    bool found = false;
    for (int u = 0; u < n; ++u) {
      if (match_left[u] == kFree) {
        dist[u] = 0;
        queue[tail++] = u;
      } else {
        dist[u] = -1;
      }
    }
    while (head < tail) {
      const int u = queue[head++];
      for (int k = adj.offset[u]; k < adj.offset[u + 1]; ++k) {
        const int w = match_right[adj.target[k]];
        if (w == kFree) {
          found = true;
        } else if (dist[w] < 0) {
          dist[w] = dist[u] + 1;
          queue[tail++] = w;
        }
      }
    }
    return found;
  };
  // Iterative augmenting-path DFS along the BFS layers.
  std::vector<int> path;
  auto dfs = [&](int root) {
    path.assign(1, root);
    while (!path.empty()) {
      const int u = path.back();
      bool advanced = false;
      for (; cursor[u] < adj.offset[u + 1]; ++cursor[u]) {
        const int r = adj.target[cursor[u]];
        const int w = match_right[r];
        if (w == kFree) {
          // Augment along the whole path.
          for (int i = static_cast<int>(path.size()) - 1; i >= 0; --i) {
            const int left = path[i];
            const int right = adj.target[cursor[left]];
            match_right[right] = left;
            match_left[left] = right;
          }
          return true;
        }
        if (dist[w] == dist[u] + 1) {
          path.push_back(w);
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        dist[u] = -1;
        path.pop_back();
        if (!path.empty()) ++cursor[path.back()];
      }
    }
    return false;
  };
  int matching = 0;
  while (bfs()) {
    for (int u = 0; u < n; ++u) cursor[u] = adj.offset[u];
    for (int u = 0; u < n; ++u) {
      if (match_left[u] == kFree && dfs(u)) ++matching;
    }
  }
  return matching;
}

}  // namespace

Oracle BuildOracle(const InputGraph& g, bool with_forests) {
  Oracle o;
  o.n = g.n;
  UnionFind uf(g.n);
  for (const auto& [u, v] : g.edges) uf.Union(u, v);
  o.label.assign(g.n, -1);
  std::vector<int> root_label(g.n, -1);
  for (int v = 0; v < g.n; ++v) {
    const int r = uf.Find(v);
    if (root_label[r] < 0) {
      root_label[r] = o.components++;
      o.size.push_back(0);
    }
    o.label[v] = root_label[r];
    ++o.size[o.label[v]];
  }
  o.f_sf = o.n - o.components;
  o.edges.assign(o.components, 0);
  for (const auto& [u, v] : g.edges) ++o.edges[o.label[u]];
  for (int c = 0; c < o.components; ++c) {
    const long long s = o.size[c];
    if (o.edges[c] != s * (s - 1) / 2) o.all_cliques = false;
  }
  if (!with_forests) return o;
  const Adjacency adj(g);
  const std::vector<int> degree = LowDegreeTreeDegrees(adj, g.n);
  o.tree_degree.assign(o.components, 0);
  for (int v = 0; v < g.n; ++v) {
    int& d = o.tree_degree[o.label[v]];
    d = std::max(d, degree[v]);
  }
  o.half_matching = DoubleCoverMatching(adj, g.n) / 2.0;
  return o;
}

SizeHistogram ComponentSizes(const Oracle& oracle) {
  SizeHistogram sizes;
  for (int size : oracle.size) ++sizes[size];
  return sizes;
}

TruncatedCount TruncatedComponents(const SizeHistogram& sizes, int n,
                                   int cutoff) {
  // Per-vertex term q(v) = 1{|C(v)| <= T} / |C(v)|; F_T = Σ_v q(v).
  TruncatedCount t;
  double sum_sq = 0.0;
  for (const auto& [size, count] : sizes) {
    if (size > cutoff) continue;
    t.count += count;
    sum_sq += static_cast<double>(count) / size;  // |C| terms of 1/|C|²
  }
  const double mean = t.count / n;
  t.term_variance = sum_sq / n - mean * mean;
  return t;
}

ValueBounds BoundsFor(const Oracle& oracle, const InputGraph& g,
                      const std::vector<int>& grid) {
  ValueBounds b;
  for (int delta : grid) {
    // Greedy maximal forest under degree cap Δ, per component.
    std::vector<double> greedy(oracle.components, 0.0);
    UnionFind uf(g.n);
    std::vector<int> degree(g.n, 0);
    for (const auto& [u, v] : g.edges) {
      if (degree[u] >= delta || degree[v] >= delta) continue;
      if (!uf.Union(u, v)) continue;
      ++degree[u];
      ++degree[v];
      greedy[oracle.label[u]] += 1.0;
    }
    double lower = 0.0, upper = 0.0;
    bool exact = true;
    for (int c = 0; c < oracle.components; ++c) {
      const double tree = oracle.size[c] - 1.0;
      if (oracle.tree_degree[c] <= delta) {
        lower += tree;
      } else {
        lower += greedy[c];
        exact = exact && greedy[c] == tree;
      }
      upper += std::min(tree, delta * oracle.size[c] / 2.0);
    }
    b.lower.push_back(lower);
    b.upper.push_back(upper);
    b.exact.push_back(exact);
  }
  return b;
}

void CheckExtensionValues(const Oracle& oracle, const ValueBounds& bounds,
                          const std::vector<int>& grid,
                          const std::vector<double>& values, Checker& check) {
  constexpr double kTol = 1e-6;
  check.Expect(values.size() == grid.size(), "one served f_Δ per grid Δ");
  if (values.size() != grid.size()) return;
  double clique_f1 = 0.0;
  for (int c = 0; c < oracle.components; ++c) {
    if (oracle.size[c] >= 2) clique_f1 += oracle.size[c] / 2.0;
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double f = values[i];
    const double delta = grid[i];
    check.Expect(f >= bounds.lower[i] - kTol,
                 Fmt("f_%g = %.6f below own forest bound %.1f", delta, f,
                     bounds.lower[i]));
    check.Expect(f <= bounds.upper[i] + kTol,
                 Fmt("f_%g = %.6f above min(f_sf, Δ|C|/2) bound %.1f", delta,
                     f, bounds.upper[i]));
    if (bounds.exact[i]) {
      check.Expect(std::fabs(f - oracle.f_sf) <= kTol,
                   Fmt("f_%g = %.6f but own forest certifies f_sf = %.1f", delta,
                       f, oracle.f_sf));
    }
    if (i > 0) {
      check.Expect(f >= values[i - 1] - kTol,
                   Fmt("f_Δ decreases at Δ = %g (%.6f < %.6f)", delta, f,
                       values[i - 1]));
    }
    if (grid[i] == 1) {
      check.Expect(std::fabs(f - oracle.half_matching) <= kTol,
                   Fmt("f_1 = %.6f but ν(double cover)/2 = %.1f", f,
                       oracle.half_matching));
    }
    if (oracle.all_cliques) {
      const double closed = grid[i] == 1 ? clique_f1 : oracle.f_sf;
      check.Expect(std::fabs(f - closed) <= kTol,
                   Fmt("clique union: f_%g = %.6f, closed form %.1f", delta, f,
                       closed));
    }
  }
}

void CheckLaplaceErrors(const std::vector<LaplaceError>& errors,
                        double tolerance, const std::string& what,
                        Checker& check) {
  // GEM may select very different Δ̂ from release to release, so every
  // error is normalized by its own scale before averaging.
  check.Expect(errors.size() >= 100, what + ": too few releases to check");
  double z_sum = 0.0, abs_ratio_sum = 0.0;
  for (const LaplaceError& e : errors) {
    z_sum += e.error / std::sqrt(2.0 * (e.a * e.a + e.b * e.b));
    abs_ratio_sum += std::fabs(e.error) * (e.a + e.b) /
                     (e.a * e.a + e.a * e.b + e.b * e.b);
  }
  const double n = static_cast<double>(errors.size());
  check.Expect(std::fabs(z_sum) <= 5.0 * std::sqrt(n),
               what + Fmt(": mean normalized error is %.2f standard errors "
                          "from 0",
                          z_sum / std::sqrt(n)));
  const double ratio = abs_ratio_sum / n;
  check.Expect(std::fabs(ratio - 1.0) <= tolerance,
               what + Fmt(": mean |error| is %.3f of the documented Laplace "
                          "scale",
                          ratio));
}

void CheckApproxErrors(const std::vector<ApproxError>& errors,
                       double tolerance, Checker& check) {
  check.Expect(errors.size() >= 100, "approx: too few releases to check");
  double sum = 0.0, sum_sq = 0.0, expected_sq = 0.0;
  for (const ApproxError& e : errors) {
    sum += e.error;
    sum_sq += e.error * e.error;
    expected_sq += 2.0 * e.b * e.b + e.sampling_variance;
  }
  check.Expect(std::fabs(sum) <= 5.0 * std::sqrt(expected_sq),
               Fmt("approx: mean error %.4g is %.2f standard errors from 0",
                   sum / errors.size(), sum / std::sqrt(expected_sq)));
  const double ratio = sum_sq / expected_sq;
  check.Expect(std::fabs(ratio - 1.0) <= tolerance,
               Fmt("approx: mean squared error is %.3f of 2b² + sampling "
                   "variance",
                   ratio));
}

double SamplingVariance(int n, int samples, double term_variance) {
  if (samples >= n) return 0.0;
  const double nn = n, s = samples;
  return nn * nn * term_variance * (nn - s) / (s * (nn - 1.0));
}

void CheckApproxParameters(int n, int delta_max, double epsilon, int samples,
                           int cutoff, double noise, double bias,
                           Checker& check) {
  const double d = delta_max > 0 ? delta_max : n;
  const double s = std::min(samples, n);
  const double expected_noise = (1.0 + (n / s) * (d + 2.0)) / epsilon;
  // The wire prints these with %.6g.
  check.Expect(std::fabs(noise - expected_noise) <= 1e-5 * expected_noise,
               Fmt("approx noise=%.6g, documented (1 + (n/s)(D+2))/ε = %.6g",
                   noise, expected_noise));
  check.Expect(std::fabs(bias - static_cast<double>(n) / cutoff) <=
                   1e-5 * n / cutoff,
               Fmt("approx bias_le=%.6g, documented n/T = %.6g", bias,
                   static_cast<double>(n) / cutoff));
}

void CheckBatch(int pairs_sent, int added, int duplicates, long long m_reply,
                long long m_own, Checker& check) {
  check.Expect(added + duplicates == pairs_sent,
               Fmt("add_edges: added %g + dup %g != %g pairs sent", added,
                   duplicates, pairs_sent));
  check.Expect(m_reply == m_own,
               Fmt("add_edges: m=%g but own distinct-edge count %g",
                   static_cast<double>(m_reply), static_cast<double>(m_own)));
}

void CheckLedger(double spent, int charges, double spent_own, int charges_own,
                 Checker& check, double tolerance) {
  check.Expect(std::fabs(spent - spent_own) <=
                   tolerance * std::max(1.0, spent_own),
               Fmt("ledger spent %.10g != Σ ε admitted %.10g", spent,
                   spent_own));
  check.Expect(charges == charges_own,
               Fmt("ledger charges %g != admitted requests %g", charges,
                   charges_own));
}

void CheckReleaseDelta(bool parsed, double delta, const std::vector<int>& grid,
                       Checker& check) {
  check.Expect(parsed && std::find(grid.begin(), grid.end(), delta) != grid.end(),
               parsed ? Fmt("release selected Δ = %g, not a grid Δ", delta)
                      : std::string("release reply has no delta="));
}

void CheckSweepReply(bool parsed, double k, int answers, int epsilons,
                     Checker& check) {
  check.Expect(parsed && k == epsilons && answers == epsilons,
               Fmt("sweep of %g ε: k=%g and %g answers", epsilons,
                   parsed ? k : NAN, answers));
}

void CheckServedFsf(double served, const Oracle& oracle,
                    const std::string& what, Checker& check) {
  check.Expect(std::fabs(served - oracle.f_sf) <= 1e-6,
               what + Fmt(": served f_sf %.6f, n − own component count %g",
                          served, oracle.f_sf));
}

void CheckLoadReply(bool parsed, double n, double m, double n_own,
                    double m_own, const std::string& what, Checker& check) {
  check.Expect(parsed && n == n_own && m == m_own,
               what + Fmt(": reply n=%g m=%g, own graph n=%g", parsed ? n : NAN,
                          parsed ? m : NAN, n_own) +
                   Fmt(" m=%g", m_own));
}

void CheckSameValues(const std::vector<double>& served,
                     const std::vector<double>& reference,
                     const std::string& what, Checker& check) {
  check.Expect(served.size() == reference.size(), what + ": length differs");
  for (std::size_t i = 0; i < served.size() && i < reference.size(); ++i) {
    check.Expect(std::fabs(served[i] - reference[i]) <=
                     1e-7 * std::max(1.0, std::fabs(reference[i])),
                 what + Fmt(": value %g is %.9g, reference %.9g",
                            static_cast<double>(i), served[i], reference[i]));
  }
}

}  // namespace perfbench
