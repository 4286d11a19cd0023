// Output checks that do not trust the program: every expected value comes
// from the benchmark's own computation on its own copy of the input, or
// from a property the method must have. selftest.cc feeds each check a
// perturbed value and expects it to fail.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <map>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

// Collects failed expectations; a run is correct iff none failed.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  long long checked() const { return checked_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long long checked_ = 0;
  std::vector<std::string> failures_;
};

// Structure of a graph computed by the benchmark alone.
struct Oracle {
  int n = 0;
  int components = 0;  // f_cc, isolated vertices included
  int f_sf = 0;        // n - f_cc
  std::vector<int> label;                 // component of each vertex
  std::vector<int> size;                  // per component
  std::vector<long long> edges;           // per component
  // Max degree of the benchmark's own spanning tree of each component
  // (0 for isolated vertices): f_Δ(C) = |C| - 1 for every Δ >= it.
  std::vector<int> tree_degree;
  bool all_cliques = true;     // every component is complete
  double half_matching = 0.0;  // ν(bipartite double cover) / 2
};

// `with_forests = false` skips the spanning trees and the matching (all a
// truncated count needs).
Oracle BuildOracle(const InputGraph& g, bool with_forests = true);

// Number of vertices in components of size <= cutoff, weighted 1/|C|:
// the truncated count F_T the approx tier estimates, and the population
// variance of the per-vertex terms (for the sampling variance).
struct TruncatedCount {
  double count = 0.0;
  double term_variance = 0.0;
};
// Component size -> number of components of that size.
using SizeHistogram = std::map<int, long long>;
SizeHistogram ComponentSizes(const Oracle& oracle);
TruncatedCount TruncatedComponents(const SizeHistogram& sizes, int n,
                                   int cutoff);

// Bounds on f_Δ for every grid Δ from the benchmark's own forests:
// lower = Σ_C (own tree fits Δ ? |C|-1 : greedy degree-capped forest of C),
// upper = Σ_C min(|C| - 1, Δ|C|/2).
struct ValueBounds {
  std::vector<double> lower, upper;
  std::vector<bool> exact;  // lower == f_sf: own forest certifies f_Δ = f_sf
};
ValueBounds BoundsFor(const Oracle& oracle, const InputGraph& g,
                      const std::vector<int>& grid);

// f_Δ served by the program, for every grid Δ: within the bounds,
// non-decreasing, f_1 equal to the half matching, equal to f_sf where own
// forests certify it, and the clique-union closed forms when they apply.
void CheckExtensionValues(const Oracle& oracle, const ValueBounds& bounds,
                          const std::vector<int>& grid,
                          const std::vector<double>& values, Checker& check);

// One exact-tier release error after removing the known extension gap:
// Lap(a) - Lap(b) (a = 0 for a single Laplace draw).
struct LaplaceError {
  double error = 0.0;
  double a = 0.0;
  double b = 0.0;
};
// Mean ≈ 0 and mean |error| / E|Lap(a) - Lap(b)| within `tolerance` of 1,
// where E|Lap(a) - Lap(b)| = (a² + ab + b²)/(a + b).
void CheckLaplaceErrors(const std::vector<LaplaceError>& errors,
                        double tolerance, const std::string& what,
                        Checker& check);

// Approx tier: error = sampling error + Lap(b). E[error] = 0 and
// E[error²] = 2b² + sampling_variance exactly; checks both.
struct ApproxError {
  double error = 0.0;
  double b = 0.0;
  double sampling_variance = 0.0;
};
void CheckApproxErrors(const std::vector<ApproxError>& errors,
                       double tolerance, Checker& check);

// Sampling variance of (n/s)·Σ over s distinct sampled vertices.
double SamplingVariance(int n, int samples, double term_variance);

// The approx tier's public parameters follow its documented formulas:
// noise = (1 + (n/s)(D + 2)) / ε and bias_le = n / T.
void CheckApproxParameters(int n, int delta_max, double epsilon, int samples,
                           int cutoff, double noise, double bias,
                           Checker& check);

// `add_edges` reply against the batch the benchmark sent.
void CheckBatch(int pairs_sent, int added, int duplicates, long long m_reply,
                long long m_own, Checker& check);

// Ledger conservation: spent = Σ ε of the admitted requests, within a
// relative `tolerance` (kWireTolerance for a `budget` reply), and charges =
// the number of admitted requests.
inline constexpr double kWireTolerance = 5e-6;  // the wire prints %.6g
void CheckLedger(double spent, int charges, double spent_own,
                 int charges_own, Checker& check, double tolerance = 1e-9);

// A release reply's `delta=` (`parsed` false if it had none) is a grid Δ.
void CheckReleaseDelta(bool parsed, double delta, const std::vector<int>& grid,
                       Checker& check);

// A sweep reply answers every ε it was asked: `k=` and the number of
// `ε:estimate` answers both equal the number of ε sent.
void CheckSweepReply(bool parsed, double k, int answers, int epsilons,
                     Checker& check);

// The served f_sf (read back through ReleaseSf) is n − own component count.
void CheckServedFsf(double served, const Oracle& oracle,
                    const std::string& what, Checker& check);

// A `load` / `load_mmap` reply's n= and m= (`parsed` false if either is
// missing) against the benchmark's own counts.
void CheckLoadReply(bool parsed, double n, double m, double n_own,
                    double m_own, const std::string& what, Checker& check);

// Two value vectors that must agree (served vs a cold rebuild).
void CheckSameValues(const std::vector<double>& served,
                     const std::vector<double>& reference,
                     const std::string& what, Checker& check);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
