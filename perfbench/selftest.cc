// Shows that every output check can fail: each check first accepts a
// correct input (values computed by the library on small graphs, or noise
// drawn at the documented scale) and must then reject a perturbed copy.

#include <cmath>
#include <cstdio>
#include <functional>

#include "checks.h"
#include "core/extension_family.h"
#include "graph/graph.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%-4s %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

bool Passes(const std::function<void(Checker&)>& check) {
  Checker c;
  check(c);
  for (const std::string& f : c.failures()) std::printf("     (%s)\n", f.c_str());
  return c.ok();
}

// f_Δ from the library for a small graph, on the Δ grid 1, 2, 4, ...
std::vector<double> LibraryValues(const InputGraph& g,
                                  const std::vector<int>& grid) {
  nodedp::ExtensionFamily family(nodedp::Graph(g.n, g.edges));
  const auto values =
      family.Values(std::vector<double>(grid.begin(), grid.end()));
  return values.ok() ? *values : std::vector<double>();
}

std::vector<int> Grid(int n) {
  std::vector<int> grid;
  for (int d = 1; d <= n; d *= 2) grid.push_back(d);
  return grid;
}

void ExtensionValueChecks() {
  // Dense-ish random blocks: LP cells at small Δ, certificates above.
  BenchRng rng(11);
  InputGraph g;
  auto gnp = [&](int size, double p) {
    const int base = g.n;
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        if (rng.Unit() < p) g.edges.emplace_back(base + i, base + j);
      }
    }
    g.n += size;
  };
  gnp(40, 6.0 / 40);
  for (int i = 0; i < 6; ++i) gnp(20, 5.0 / 20);
  const std::vector<int> grid = Grid(g.n);
  const Oracle oracle = BuildOracle(g);
  const ValueBounds bounds = BoundsFor(oracle, g, grid);
  const std::vector<double> values = LibraryValues(g, grid);
  auto check = [&](const std::vector<double>& v) {
    return Passes(
        [&](Checker& c) { CheckExtensionValues(oracle, bounds, grid, v, c); });
  };
  Expect(check(values), "library f_Δ pass the extension checks");
  std::vector<double> bad = values;
  bad[0] += 0.5;
  Expect(!check(bad), "f_1 + 0.5 fails (half matching of the double cover)");
  bad = values;
  const std::size_t last = grid.size() - 1;
  bad[last] += 1.0;
  Expect(!check(bad), "f_Δmax + 1 fails (upper bound / certified f_sf)");
  bad = values;
  bad[1] = bounds.lower[1] - 1.0;
  Expect(!check(bad), "f_2 below the own forest bound fails");
  bad = values;
  std::size_t exact = 0;
  while (exact < grid.size() && !bounds.exact[exact]) ++exact;
  Expect(exact < grid.size(), "own forest certifies f_Δ = f_sf at some Δ");
  if (exact < grid.size() && exact + 1 < grid.size()) {
    bad[exact] -= 0.25;
    bad[exact + 1] -= 0.25;
    Expect(!check(bad), "f_Δ = f_sf - 0.25 where own forest certifies fails");
  }
  bad = values;
  bad[2] = values[1] - 0.5;
  Expect(!check(bad), "a decreasing f_Δ fails");

  // Clique union: closed forms.
  InputGraph cliques;
  for (int size : {1, 2, 3, 5, 8, 4}) {
    const int base = cliques.n;
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        cliques.edges.emplace_back(base + i, base + j);
      }
    }
    cliques.n += size;
  }
  const std::vector<int> cgrid = Grid(cliques.n);
  const Oracle coracle = BuildOracle(cliques);
  const ValueBounds cbounds = BoundsFor(coracle, cliques, cgrid);
  const std::vector<double> cvalues = LibraryValues(cliques, cgrid);
  auto ccheck = [&](const std::vector<double>& v) {
    return Passes([&](Checker& c) {
      CheckExtensionValues(coracle, cbounds, cgrid, v, c);
    });
  };
  Expect(coracle.all_cliques && ccheck(cvalues),
         "library f_Δ on a clique union pass the closed forms");
  bad = cvalues;
  bad[1] -= 0.5;
  Expect(!ccheck(bad), "clique union f_2 = f_sf - 0.5 fails");
}

void NoiseChecks() {
  BenchRng rng(5);
  auto draws = [&](double scale_factor, double shift) {
    std::vector<LaplaceError> errors;
    for (int i = 0; i < 600; ++i) {
      const double a = 2.0, b = 4.0 * (1 << (i % 3));
      errors.push_back({scale_factor * (rng.Laplace(a) - rng.Laplace(b)) +
                            shift * b,
                        a, b});
    }
    return errors;
  };
  auto check = [&](const std::vector<LaplaceError>& e) {
    return Passes([&](Checker& c) { CheckLaplaceErrors(e, 0.2, "cc", c); });
  };
  Expect(check(draws(1.0, 0.0)), "release errors at the documented scale pass");
  Expect(!check(draws(0.5, 0.0)), "a halved noise scale fails");
  Expect(!check(draws(1.0, 0.5)), "errors biased by half a scale fail");

  auto approx = [&](double scale_factor) {
    std::vector<ApproxError> errors;
    const double b = 15626.0, sampling_sd = 0.7 * b;
    for (int i = 0; i < 1000; ++i) {
      // A sum of uniforms stands in for the sampling error's shape.
      double s = 0.0;
      for (int k = 0; k < 12; ++k) s += rng.Unit() - 0.5;
      errors.push_back({scale_factor * rng.Laplace(b) + sampling_sd * s, b,
                        sampling_sd * sampling_sd});
    }
    return errors;
  };
  auto acheck = [&](const std::vector<ApproxError>& e) {
    return Passes([&](Checker& c) { CheckApproxErrors(e, 0.3, c); });
  };
  Expect(acheck(approx(1.0)), "approx errors at the documented scale pass");
  Expect(!acheck(approx(0.5)), "approx with a halved noise scale fails");

  auto params = [&](double noise, double bias) {
    return Passes([&](Checker& c) {
      CheckApproxParameters(1000000, 4, 1.0, 384, 64, noise, bias, c);
    });
  };
  const double noise = 1.0 + (1000000.0 / 384) * 6.0;
  Expect(params(noise, 15625.0), "documented approx parameters pass");
  Expect(!params(noise * 0.5, 15625.0), "approx noise halved fails");
  Expect(!params(noise, 15625.0 * 1.01), "approx bias_le off by 1% fails");
}

void BookkeepingChecks() {
  auto batch = [](int added, int dup, long long m) {
    return Passes([&](Checker& c) { CheckBatch(3, added, dup, m, 1000, c); });
  };
  Expect(batch(2, 1, 1000), "add_edges reply matching the batch passes");
  Expect(!batch(3, 1, 1000), "added + dup != pairs sent fails");
  Expect(!batch(2, 1, 1001), "m != own edge count fails");

  auto ledger = [](double spent, int charges) {
    return Passes(
        [&](Checker& c) { CheckLedger(spent, charges, 123.5, 40, c); });
  };
  Expect(ledger(123.5, 40), "conserved ledger passes");
  Expect(!ledger(123.5 + 1e-3, 40), "spent off by 1e-3 fails");
  Expect(!ledger(123.5, 41), "an extra charge fails");

  // A `budget` reply prints spent with %.6g: the wire tolerance accepts
  // that rounding and nothing much larger.
  auto wire = [](double spent, int charges) {
    return Passes([&](Checker& c) {
      CheckLedger(spent, charges, 123456.75, 40, c, kWireTolerance);
    });
  };
  Expect(wire(123457.0, 40), "budget reply rounded to 6 digits passes");
  Expect(!wire(123457.0 + 2.0, 40), "budget reply spent off by 2 fails");
  Expect(!wire(123457.0, 39), "budget reply one charge short fails");

  const std::vector<int> grid = {1, 2, 4, 8};
  auto release = [&](bool parsed, double delta) {
    return Passes(
        [&](Checker& c) { CheckReleaseDelta(parsed, delta, grid, c); });
  };
  Expect(release(true, 4), "release selecting a grid Δ passes");
  Expect(!release(true, 3), "release selecting Δ = 3 off the grid fails");
  Expect(!release(false, 4), "release reply without delta= fails");

  auto sweep = [](bool parsed, double k, int answers) {
    return Passes(
        [&](Checker& c) { CheckSweepReply(parsed, k, answers, 3, c); });
  };
  Expect(sweep(true, 3, 3), "sweep answering every ε passes");
  Expect(!sweep(true, 2, 3), "sweep with k = 2 for 3 ε fails");
  Expect(!sweep(true, 3, 2), "sweep with 2 answers for 3 ε fails");
  Expect(!sweep(false, 3, 3), "sweep reply without k= fails");

  // f_sf = n − components: 10 vertices in 3 components give 7.
  InputGraph g;
  g.n = 10;
  g.edges = {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {7, 8}, {8, 9}};
  const Oracle oracle = BuildOracle(g, false);
  auto fsf = [&](double served) {
    return Passes(
        [&](Checker& c) { CheckServedFsf(served, oracle, "sf", c); });
  };
  Expect(oracle.f_sf == 7 && fsf(7.0), "served f_sf = n − components passes");
  Expect(!fsf(7.5), "served f_sf off by 0.5 fails");

  auto load = [](bool parsed, double n, double m) {
    return Passes([&](Checker& c) {
      CheckLoadReply(parsed, n, m, 10, 7, "load", c);
    });
  };
  Expect(load(true, 10, 7), "load reply matching the own graph passes");
  Expect(!load(true, 11, 7), "load reply with n off by one fails");
  Expect(!load(true, 10, 6), "load reply with m off by one fails");
  Expect(!load(false, 10, 7), "load reply without n=/m= fails");

  auto same = [](double v) {
    return Passes([&](Checker& c) {
      CheckSameValues({1.0, 2.5, v}, {1.0, 2.5, 7.0}, "cold", c);
    });
  };
  Expect(same(7.0), "served equal to the cold rebuild passes");
  Expect(!same(7.001), "served off the cold rebuild by 1e-3 fails");
}

}  // namespace

int RunSelfTest() {
  ExtensionValueChecks();
  NoiseChecks();
  BookkeepingChecks();
  std::printf("%s: %d expectation(s) failed\n", failures ? "FAIL" : "PASS",
              failures);
  return failures ? 1 : 0;
}

}  // namespace perfbench
