#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <unordered_set>

#include "core/private_cc.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

constexpr double kBudget = 1e9;
constexpr const char* kExactName = "g";
constexpr const char* kApproxName = "big";
constexpr const char* kBulkName = "bulk";
// Releases issued after the timed phase, on the final graph, for the noise
// checks (each of release_cc and release_sf; approx tier on top of the
// timed phase's own approx releases).
constexpr int kNoiseReleases = 600;
constexpr int kApproxNoiseReleases = 1000;
constexpr double kNoiseTolerance = 0.2;
constexpr double kApproxTolerance = 0.3;

// The closed loop runs in slots of kSlotNs. Each slot sends one add_edges
// batch and one release round, and the client then waits for the slot's
// end. The verb shares are the repository's documented serving mix, that
// of the open-loop traffic bench (bench/bench_traffic.cc): 70% exact-tier
// release_cc, 15% approx-tier release_cc, 10% sweep of 3 ε and 5%
// add_edges, so a slot holds 14, 3, 2 and 1 of them. lp_warm serves no
// approx tier and keeps the other shares: 14, 2 and 1.
//
// Updates are paced by the clock, not by the program's speed, because every
// batch leaves the served graph larger and slows later releases a little
// (measured on lp_warm's graph with 3,000 entities: exact-tier release_cc
// p50 rose from ~280 to ~420 us over 2,400 back-to-back batches): a run's
// state at a given second is then the same however fast the program is,
// and a faster release path does not buy itself more update drift. The
// slot is long enough for its requests with room to spare on the machine
// the benchmark was tuned on (README.md); a slot that overruns delays the
// next one, and later slots catch up without waiting.
constexpr std::int64_t kSlotNs = 25'000'000;
// The client thread stays on one CPU for this many slots (see Run()).
constexpr long long kSlotsPerVisit = 4;

struct Mix {
  int release_cc = 0;
  int approx = 0;  // release_cc ... tier=approx against the mmap graph
  int sweeps = 0;
  std::vector<double> sweep_eps;
};

Mix MixFor(Workload w) {
  switch (w) {
    case Workload::kLpWarm:
      return {14, 0, 2, {0.5, 1, 2}};
    case Workload::kReleaseStream:
      return {14, 3, 2, {0.5, 1, 2}};
  }
  return {};
}

double VmHwmMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Mean over CPUs of the median of the samples taken on each CPU, so every
// CPU weighs the same whatever its speed.
double CpuBalancedMedian(const std::vector<std::vector<double>>& by_cpu) {
  double sum = 0.0;
  int cpus = 0;
  for (const auto& samples : by_cpu) {
    if (samples.empty()) continue;
    sum += Median(samples);
    ++cpus;
  }
  return cpus ? sum / cpus : 0.0;
}

// Reads `key=<number>` from a reply line.
bool Field(const std::string& reply, const std::string& key, double* out) {
  const std::string needle = " " + key + "=";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = reply.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

std::uint64_t EdgeKey(int u, int v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
}

std::vector<int> PowersOfTwo(int limit) {
  std::vector<int> grid;
  for (long long d = 1; d <= std::max(1, limit); d *= 2) {
    grid.push_back(static_cast<int>(d));
  }
  return grid;
}

struct Ledger {
  double spent = 0.0;
  int charges = 0;
  void Charge(double epsilon) {
    spent += epsilon;
    ++charges;
  }
};

// Served f_Δ for every grid Δ, read back through ReleaseSf's GEM
// candidates: q_Δ = (f_sf − f_Δ) + 2Δ/ε, and f_sf = f_Δ̂ + gap_Δ̂.
struct ServedValues {
  bool ok = false;
  std::vector<int> grid;
  std::vector<double> values;
  double f_sf = 0.0;
};

ServedValues ReadServedValues(nodedp::ReleaseServer& server,
                              const char* name, Ledger& ledger) {
  constexpr double kEpsilon = 1.0;
  ServedValues out;
  const auto release = server.ReleaseSf(name, kEpsilon);
  if (!release.ok()) return out;
  ledger.Charge(kEpsilon);
  out.grid = release->grid;
  std::vector<double> gap;
  for (std::size_t i = 0; i < out.grid.size(); ++i) {
    gap.push_back(release->candidates[i].q - 2.0 * out.grid[i] / kEpsilon);
  }
  const auto selected = std::find(out.grid.begin(), out.grid.end(),
                                  release->selected_delta);
  out.f_sf = release->extension_value + gap[selected - out.grid.begin()];
  for (double g : gap) out.values.push_back(out.f_sf - g);
  out.ok = true;
  return out;
}

InputGraph WithEdges(const InputGraph& base,
                     const std::vector<std::pair<int, int>>& added) {
  InputGraph g = base;
  g.edges.insert(g.edges.end(), added.begin(), added.end());
  std::sort(g.edges.begin(), g.edges.end());
  return g;
}

class WorkloadRun {
 public:
  explicit WorkloadRun(const RunOptions& options)
      : options_(options), mix_(MixFor(options.workload)) {}

  int Run();

 private:
  // Sends one request line through the shared dispatcher, timing it.
  std::string Request(const std::string& line, const char* span_name,
                      double* latency_ns = nullptr) {
    const int span = tracer_.Begin(span_name);
    const std::int64_t start = NowNs();
    std::string reply = nodedp::HandleRequestLine(server_, line).response;
    const std::int64_t end = NowNs();
    tracer_.End(span);
    if (latency_ns != nullptr) *latency_ns = static_cast<double>(end - start);
    return reply;
  }
  // Counts one timed operation; an `err` reply counts as failed.
  bool Attempt(const std::string& reply, const char* what) {
    ++attempted_;
    const bool ok = reply.rfind("ok", 0) == 0;
    if (!ok) {
      ++failed_;
      if (failure_notes_.size() < 5) {
        failure_notes_.push_back(std::string(what) + ": " + reply);
      }
    }
    return ok;
  }

  void Setup();
  // Runs one slot on CPU `cpu` (an index into cpus_): one update batch and
  // one release round, then waits until `end_ns`.
  void RunSlot(std::size_t cpu, bool traced, std::int64_t end_ns);
  void RunUpdate(std::size_t cpu);
  void RunReleaseRound(std::size_t cpu, bool traced);
  // Reply checks of the timed phase run between requests, outside the
  // timed intervals, and keep no reply text (approx replies keep four
  // numbers each for the noise check after the loop).
  void CheckUpdate(const std::vector<std::pair<int, int>>& batch,
                   const std::string& reply);
  void CheckRelease(const std::string& reply);
  void CheckSweep(const std::string& reply);
  void CheckBudget(const std::string& reply);
  void CheckApprox(const std::string& reply);
  void CheckApproxNoise();
  void CheckFinalGraph();
  void CheckBulkGraph();
  void ReportEndToEnd();

  const RunOptions& options_;
  const Mix mix_;
  nodedp::ReleaseServer server_{0x5eed0000ULL ^ options_.seed};
  Tracer tracer_;
  Checker check_;
  std::vector<Metric> metrics_;

  WorkloadInputs inputs_;
  std::unique_ptr<UpdatePlan> plan_;
  std::vector<int> grid_;
  Ledger exact_ledger_, approx_ledger_;

  // Own view of the updates: edges added beyond the generated graph.
  std::unordered_set<std::uint64_t> added_keys_;
  std::vector<std::pair<int, int>> added_edges_;
  // Approx-tier replies of the timed phase: (estimate, samples, cutoff,
  // noise), checked against the truth once the timed phase is over.
  struct ApproxReply {
    double estimate, samples, cutoff, noise;
  };
  std::vector<ApproxReply> approx_replies_;
  std::vector<std::string> failure_notes_;

  long long attempted_ = 0;
  long long failed_ = 0;
  double setup_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
  // The CPUs the client thread visits in turn, and per CPU the samples
  // taken there: exact-tier release_cc latencies, add_edges latencies, and
  // each release round's releases per second of request time. A median
  // over rounds, unlike a run's total, is not moved by the few rounds in
  // which the machine's hypervisor stalled the client thread.
  std::vector<int> cpus_;
  std::vector<std::vector<double>> cc_ns_, update_ns_, round_release_rate_;
  std::vector<double> cc_ns_traced_, cc_ns_untraced_;
  std::string load_reply_, mmap_reply_, bulk_reply_;
  nodedp::ExtensionFamily::Stats setup_stats_;
  std::vector<double> setup_values_;
  RegistrySnapshot at_start_, after_setup_, after_loop_, after_checks_;
};

void WorkloadRun::Setup() {
  // Cold set-up, timed from process start: read and warm the exact-tier
  // graph (`load` warms the whole Δ grid before it replies) and map the
  // approx-tier graph.
  char line[512];
  std::snprintf(line, sizeof(line), "load %s %s/%s %g", kExactName,
                options_.dir.c_str(), kExactFile, kBudget);
  load_reply_ = Request(line, "request.load");
  Attempt(load_reply_, "load");
  if (options_.workload == Workload::kReleaseStream) {
    std::snprintf(line, sizeof(line), "load_mmap %s %s/%s %g %d", kApproxName,
                  options_.dir.c_str(), kApproxFile, kBudget, kApproxDeltaMax);
    mmap_reply_ = Request(line, "request.load_mmap");
    Attempt(mmap_reply_, "load_mmap");
    std::snprintf(line, sizeof(line), "load %s %s/%s %g", kBulkName,
                  options_.dir.c_str(), kBulkFile, kBudget);
    bulk_reply_ = Request(line, "request.load");
    Attempt(bulk_reply_, "load bulk");
  }
  setup_s_ = static_cast<double>(NowNs() - options_.t0_ns) * 1e-9;
}

void WorkloadRun::RunSlot(std::size_t cpu, bool traced, std::int64_t end_ns) {
  tracer_.set_enabled(traced);
  {
    ScopedSpan span(tracer_, "slot");
    RunUpdate(cpu);
    RunReleaseRound(cpu, traced);
  }
  // Spin rather than sleep, so the thread keeps its CPU and its cache.
  while (NowNs() < end_ns) {
  }
}

void WorkloadRun::RunUpdate(std::size_t cpu) {
  const std::vector<std::pair<int, int>> batch = plan_->NextBatch();
  std::string request = std::string("add_edges ") + kExactName;
  for (const auto& [u, v] : batch) {
    request += " " + std::to_string(u) + " " + std::to_string(v);
  }
  double ns = 0.0;
  const std::string update = Request(request, "request.add_edges", &ns);
  if (Attempt(update, "add_edges")) update_ns_[cpu].push_back(ns);
  CheckUpdate(batch, update);
}

void WorkloadRun::RunReleaseRound(std::size_t cpu, bool traced) {
  ScopedSpan round(tracer_, "round");
  // The round's rate counts request time only: the client's own work
  // between requests (request text, reply checks) is left out.
  double release_ns = 0.0;
  int releases = 0;
  char line[128];
  double ns = 0.0;
  for (int i = 0; i < mix_.release_cc; ++i) {
    std::snprintf(line, sizeof(line), "release_cc %s 1", kExactName);
    const std::string r = Request(line, "request.release_cc", &ns);
    release_ns += ns;
    ++releases;
    if (Attempt(r, "release_cc")) {
      exact_ledger_.Charge(1.0);
      cc_ns_[cpu].push_back(ns);
      (traced ? cc_ns_traced_ : cc_ns_untraced_).push_back(ns);
      CheckRelease(r);
    }
  }
  for (int i = 0; i < mix_.approx; ++i) {
    std::snprintf(line, sizeof(line), "release_cc %s 1 tier=approx",
                  kApproxName);
    const std::string r = Request(line, "request.release_cc", &ns);
    release_ns += ns;
    ++releases;
    if (Attempt(r, "approx")) {
      approx_ledger_.Charge(1.0);
      CheckApprox(r);
    }
  }
  for (int i = 0; i < mix_.sweeps; ++i) {
    std::string sweep = std::string("sweep ") + kExactName;
    double total = 0.0;
    for (double e : mix_.sweep_eps) {
      std::snprintf(line, sizeof(line), " %g", e);
      sweep += line;
      total += e;
    }
    const std::string r = Request(sweep, "request.sweep", &ns);
    release_ns += ns;
    ++releases;
    // A sweep is admitted as one charge of Σ ε.
    if (Attempt(r, "sweep")) {
      exact_ledger_.Charge(total);
      CheckSweep(r);
    }
  }
  round_release_rate_[cpu].push_back(releases / (release_ns * 1e-9));
}

void WorkloadRun::CheckUpdate(const std::vector<std::pair<int, int>>& batch,
                              const std::string& reply) {
  // added + dup = pairs sent; m = own distinct-edge count.
  const auto& initial = inputs_.exact.edges;
  for (auto [u, v] : batch) {
    if (u > v) std::swap(u, v);
    if (!std::binary_search(initial.begin(), initial.end(),
                            std::make_pair(u, v)) &&
        added_keys_.insert(EdgeKey(u, v)).second) {
      added_edges_.emplace_back(u, v);
    }
  }
  double added = 0, dup = 0, m = 0;
  const bool parsed = Field(reply, "added", &added) &&
                      Field(reply, "dup", &dup) && Field(reply, "m", &m);
  check_.Expect(parsed, "add_edges reply: " + reply);
  if (parsed) {
    CheckBatch(static_cast<int>(batch.size()), static_cast<int>(added),
               static_cast<int>(dup), static_cast<long long>(m),
               static_cast<long long>(initial.size() + added_edges_.size()),
               check_);
  }
}

void WorkloadRun::CheckRelease(const std::string& reply) {
  double delta = 0;
  const bool parsed = Field(reply, "delta", &delta);
  CheckReleaseDelta(parsed, delta, grid_, check_);
}

void WorkloadRun::CheckSweep(const std::string& reply) {
  double k = 0;
  const bool parsed = Field(reply, "k", &k);
  CheckSweepReply(parsed, k,
                  static_cast<int>(std::count(reply.begin(), reply.end(), ':')),
                  static_cast<int>(mix_.sweep_eps.size()), check_);
}

void WorkloadRun::CheckBudget(const std::string& reply) {
  // Every charge admitted so far.
  double spent = 0, charges = 0;
  const bool parsed =
      Field(reply, "spent", &spent) && Field(reply, "charges", &charges);
  check_.Expect(parsed, "budget reply: " + reply);
  if (parsed) {
    CheckLedger(spent, static_cast<int>(charges), exact_ledger_.spent,
                exact_ledger_.charges, check_, kWireTolerance);
  }
}

void WorkloadRun::CheckApprox(const std::string& reply) {
  ApproxReply a{};
  double bias = 0;
  const bool parsed =
      Field(reply, "cc", &a.estimate) && Field(reply, "samples", &a.samples) &&
      Field(reply, "cutoff", &a.cutoff) && Field(reply, "noise", &a.noise) &&
      Field(reply, "bias_le", &bias);
  check_.Expect(parsed, "approx reply: " + reply);
  if (!parsed) return;
  CheckApproxParameters(kApproxVertices, kApproxDeltaMax, 1.0,
                        static_cast<int>(a.samples), static_cast<int>(a.cutoff),
                        a.noise, bias, check_);
  approx_replies_.push_back(a);
}

void WorkloadRun::CheckApproxNoise() {
  // Approx tier: errors against the truncated count of the benchmark's own
  // copy of the mmap graph, written when the inputs were generated.
  std::ifstream in(options_.dir + "/" + kApproxSizesFile);
  int n = 0;
  SizeHistogram sizes;
  in >> n;
  int size = 0;
  long long count = 0;
  while (in >> size >> count) sizes[size] = count;
  check_.Expect(n == kApproxVertices && !sizes.empty(),
                "read the approx graph's component sizes");
  // The approx graph is a clique union: m = Σ_C |C|(|C| − 1)/2.
  double m_own = 0.0;
  for (const auto& [size, count] : sizes) {
    m_own += static_cast<double>(count) * size * (size - 1) / 2;
  }
  double mapped_n = 0, mapped_m = 0;
  const bool parsed =
      Field(mmap_reply_, "n", &mapped_n) && Field(mmap_reply_, "m", &mapped_m);
  CheckLoadReply(parsed, mapped_n, mapped_m, n, m_own, "load_mmap", check_);
  for (int i = 0; i < kApproxNoiseReleases; ++i) {
    const auto release = server_.ReleaseCcApprox(kApproxName, 1.0);
    check_.Expect(release.ok(), "ReleaseCcApprox");
    if (!release.ok()) continue;
    approx_ledger_.Charge(1.0);
    approx_replies_.push_back({release->estimate,
                               static_cast<double>(release->num_samples),
                               static_cast<double>(release->bfs_cutoff),
                               release->laplace_scale});
  }
  std::vector<ApproxError> errors;
  for (const ApproxReply& a : approx_replies_) {
    const TruncatedCount t =
        TruncatedComponents(sizes, n, static_cast<int>(a.cutoff));
    errors.push_back(
        {a.estimate - t.count, a.noise,
         SamplingVariance(n, static_cast<int>(a.samples), t.term_variance)});
  }
  CheckApproxErrors(errors, kApproxTolerance, check_);
  const auto budget = server_.Budget(kApproxName);
  check_.Expect(budget.ok(), "Budget(approx)");
  if (budget.ok()) {
    CheckLedger(budget->spent, budget->num_charges, approx_ledger_.spent,
                approx_ledger_.charges, check_);
  }
}

void WorkloadRun::CheckFinalGraph() {
  double n = 0, m = 0;
  const bool parsed = Field(load_reply_, "n", &n) && Field(load_reply_, "m", &m);
  CheckLoadReply(parsed, n, m, inputs_.exact.n,
                 static_cast<double>(inputs_.exact.edges.size()), "load",
                 check_);
  // The wire's `budget` verb, once, after the timed phase.
  CheckBudget(Request(std::string("budget ") + kExactName, "check.budget"));

  // Served f_Δ on the final graph against the benchmark's own oracle.
  const InputGraph final_graph = WithEdges(inputs_.exact, added_edges_);
  const Oracle oracle = BuildOracle(final_graph);
  const ServedValues served = ReadServedValues(server_, kExactName, exact_ledger_);
  check_.Expect(served.ok, "ReleaseSf on the final graph");
  if (!served.ok) return;
  check_.Expect(served.grid == grid_, "served Δ grid is the powers of two");
  CheckServedFsf(served.f_sf, oracle, "final graph", check_);
  CheckExtensionValues(oracle, BoundsFor(oracle, final_graph, grid_), grid_,
                       served.values, check_);

  {
    // A cold family on the benchmark's own copy of the final graph must
    // serve exactly what the incrementally maintained one serves.
    const nodedp::Graph g(final_graph.n, final_graph.edges);
    nodedp::ExtensionFamily cold(g, nodedp::ExtensionOptions{},
                                 nodedp::ExtensionFamily::DeferInduction{});
    const auto values =
        cold.Values(std::vector<double>(grid_.begin(), grid_.end()));
    check_.Expect(values.ok(), "cold family on the final graph");
    if (values.ok()) {
      CheckSameValues(served.values, *values, "served vs cold family", check_);
    }
  }

  // Release noise on the final graph once the extension gap f_sf − f_Δ̂ of
  // the selected Δ̂ is removed (the gap itself was checked above).
  auto gap_at = [&](double delta) {
    const auto it =
        std::find(grid_.begin(), grid_.end(), static_cast<int>(delta));
    return it == grid_.end() ? NAN
                             : oracle.f_sf - served.values[it - grid_.begin()];
  };
  std::vector<LaplaceError> cc_errors, sf_errors;
  char line[128];
  for (int i = 0; i < kNoiseReleases; ++i) {
    double est = 0, delta = 0;
    std::snprintf(line, sizeof(line), "release_cc %s 1", kExactName);
    std::string r = Request(line, "check.release_cc");
    if (Field(r, "cc", &est) && Field(r, "delta", &delta)) {
      exact_ledger_.Charge(1.0);
      // cc = (n + Lap(2/ε)) − (f_Δ̂ + Lap(4Δ̂/ε)).
      cc_errors.push_back(
          {est - oracle.components - gap_at(delta), 2.0, 4.0 * delta});
    }
    std::snprintf(line, sizeof(line), "release_sf %s 1", kExactName);
    r = Request(line, "check.release_sf");
    if (Field(r, "sf", &est) && Field(r, "delta", &delta)) {
      exact_ledger_.Charge(1.0);
      // sf = f_Δ̂ + Lap(2Δ̂/ε).
      sf_errors.push_back(
          {est - (oracle.f_sf - gap_at(delta)), 0.0, 2.0 * delta});
    }
  }
  CheckLaplaceErrors(cc_errors, kNoiseTolerance, "release_cc", check_);
  CheckLaplaceErrors(sf_errors, kNoiseTolerance, "release_sf", check_);

  const auto budget = server_.Budget(kExactName);
  check_.Expect(budget.ok(), "Budget(exact)");
  if (budget.ok()) {
    CheckLedger(budget->spent, budget->num_charges, exact_ledger_.spent,
                exact_ledger_.charges, check_);
  }
}

void WorkloadRun::CheckBulkGraph() {
  // The idle tenant is a clique union: its served f_Δ must match the
  // closed forms and the benchmark's own bounds.
  const WorkloadInputs all = MakeInputs(options_.workload, options_.seed);
  double n = 0, m = 0;
  const bool parsed = Field(bulk_reply_, "n", &n) && Field(bulk_reply_, "m", &m);
  CheckLoadReply(parsed, n, m, all.bulk.n,
                 static_cast<double>(all.bulk.edges.size()), "load bulk",
                 check_);
  Ledger unchecked;
  const ServedValues served = ReadServedValues(server_, kBulkName, unchecked);
  check_.Expect(served.ok, "ReleaseSf on the bulk graph");
  if (!served.ok) return;
  const Oracle oracle = BuildOracle(all.bulk);
  check_.Expect(oracle.all_cliques, "bulk graph is a clique union");
  CheckServedFsf(served.f_sf, oracle, "bulk", check_);
  CheckExtensionValues(oracle, BoundsFor(oracle, all.bulk, served.grid),
                       served.grid, served.values, check_);
}

void WorkloadRun::ReportEndToEnd() {
  auto add = [&](const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, ""});
  };
  add("setup_s", setup_s_, "s");
  // Medians, not totals: robust to a stall in one round.
  add("releases_per_s", CpuBalancedMedian(round_release_rate_), "1/s");
  add("release_p50_us", CpuBalancedMedian(cc_ns_) * 1e-3, "us");
  add("update_p50_ms", CpuBalancedMedian(update_ns_) * 1e-6, "ms");
  add("peak_rss_mb", peak_rss_mb_, "MB");
}

int WorkloadRun::Run() {
  at_start_ = TakeRegistrySnapshot();
  Setup();
  if (failed_ > 0) {
    for (const std::string& note : failure_notes_) {
      std::fprintf(stderr, "set-up failed: %s\n", note.c_str());
    }
    return 1;
  }
  // Served state right after set-up, before any query touches the family.
  const auto stats = server_.Stats(kExactName);
  check_.Expect(stats.ok(), "Stats after set-up");
  if (stats.ok()) setup_stats_ = stats->family;
  after_setup_ = TakeRegistrySnapshot();

  // The benchmark's own copy of the exact graph (not of the approx graph,
  // which would dominate the process's peak RSS).
  inputs_ = MakeInputs(options_.workload, options_.seed, /*with_approx=*/false);
  plan_ = std::make_unique<UpdatePlan>(options_.seed, inputs_);
  grid_ = PowersOfTwo(inputs_.exact.n);
  const ServedValues at_setup = ReadServedValues(server_, kExactName, exact_ledger_);
  setup_values_ = at_setup.values;

  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options_.seconds * 1e9);
  // On a shared machine the CPUs run at different speeds, and a run that
  // stayed on whichever CPU it started on would measure that CPU: the
  // client thread visits every allowed CPU in turn, kSlotsPerVisit slots
  // each (the pool's threads, started during set-up, keep the full mask).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
  if (cpus_.empty()) cpus_.push_back(-1);  // no affinity: stay put
  cc_ns_.resize(cpus_.size());
  update_ns_.resize(cpus_.size());
  round_release_rate_.resize(cpus_.size());
  for (long long slot = 0; NowNs() < deadline; ++slot) {
    const long long visit = slot / kSlotsPerVisit;
    const std::size_t cpu = visit % cpus_.size();
    if (slot % kSlotsPerVisit == 0 && cpus_[cpu] >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[cpu], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    // Traced runs alternate traced and untraced visits of all CPUs, so the
    // tracing overhead is measured against untraced slots of the same run.
    RunSlot(cpu, options_.trace && (visit / cpus_.size()) % 2 == 0,
            std::min<std::int64_t>(deadline, start + (slot + 1) * kSlotNs));
  }
  if (cpus_[0] >= 0) sched_setaffinity(0, sizeof(allowed), &allowed);
  tracer_.set_enabled(options_.trace);
  peak_rss_mb_ = VmHwmMb();
  after_loop_ = TakeRegistrySnapshot();

  if (options_.workload == Workload::kReleaseStream) {
    CheckApproxNoise();
    CheckBulkGraph();
  }
  CheckFinalGraph();
  after_checks_ = TakeRegistrySnapshot();

  if (options_.trace) {
    ProbeContext context{options_,      inputs_,       server_,
                         grid_,         setup_stats_,  setup_values_,
                         at_start_,     after_setup_,  after_loop_,
                         after_checks_, tracer_,       check_,
                         metrics_};
    RunLayerProbes(context);
    const double traced = Median(cc_ns_traced_);
    const double untraced = Median(cc_ns_untraced_);
    metrics_.push_back({"trace.overhead_pct",
                        untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0,
                        "%", "release_p50_us"});
    metrics_.push_back({"trace.spans", static_cast<double>(tracer_.size()),
                        "count", ""});
    char path[512];
    std::snprintf(path, sizeof(path), "%s/trace-%s-%llu.jsonl",
                  options_.dir.c_str(), WorkloadName(options_.workload),
                  static_cast<unsigned long long>(options_.seed));
    check_.Expect(tracer_.WriteJsonLines(path), "write the span trace");
    for (const Metric& m : metrics_) {
      std::printf("layer %-32s %14.6g %-6s moves %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.moves.c_str());
    }
  } else {
    ReportEndToEnd();
  }

  for (const std::string& note : failure_notes_) {
    std::fprintf(stderr, "failed operation: %s\n", note.c_str());
  }
  for (const std::string& failure : check_.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::fprintf(stderr, "%s seed=%llu: %lld checks, %zu failed; %lld ops\n",
               WorkloadName(options_.workload),
               static_cast<unsigned long long>(options_.seed),
               check_.checked(), check_.failures().size(), attempted_);
  std::string json = "{\"correct\": ";
  json += check_.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char item[256];
    std::snprintf(item, sizeof(item), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    json += item;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

RegistrySnapshot TakeRegistrySnapshot() {
  RegistrySnapshot snapshot;
  for (const auto& sample : nodedp::MetricsRegistry::Default().Samples()) {
    snapshot[sample.name] = sample.value;
  }
  return snapshot;
}

double RegistryDelta(const RegistrySnapshot& before,
                     const RegistrySnapshot& after, const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

int RunWorkload(const RunOptions& options) {
  WorkloadRun run(options);
  return run.Run();
}

}  // namespace perfbench
