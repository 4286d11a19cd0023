// The three benchmark workloads: a timed set-up, a timed single-client
// closed loop of request lines through serve::HandleRequestLine, output
// checks, and (traced runs only) per-layer probes.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "core/extension_family.h"
#include "inputs.h"
#include "serve/release_server.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kLpWarm;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;          // holds the generated graph files
  std::int64_t t0_ns = 0;   // steady-clock time the process was started
};

// Pool width every workload runs at (NODEDP_THREADS): at most half of the
// 4-CPU machines the benchmark was tuned on, so the client thread and the
// rest of the machine never compete with the pool.
inline constexpr int kPoolWidth = 2;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;  // per-layer metrics: the end-to-end metric it moves
};

// Registry view: MetricsRegistry::Default().Samples() as a map.
using RegistrySnapshot = std::map<std::string, double>;
RegistrySnapshot TakeRegistrySnapshot();
// after[key] - before[key], missing keys reading 0.
double RegistryDelta(const RegistrySnapshot& before,
                     const RegistrySnapshot& after, const std::string& key);

// What the traced probes need from the workload run.
struct ProbeContext {
  const RunOptions& options;
  const WorkloadInputs& inputs;
  nodedp::ReleaseServer& server;
  const std::vector<int>& grid;            // the exact graph's Δ grid
  const nodedp::ExtensionFamily::Stats& setup_stats;  // served, after set-up
  const std::vector<double>& setup_values;            // served, after set-up
  const RegistrySnapshot& at_start;
  const RegistrySnapshot& after_setup;
  const RegistrySnapshot& after_loop;
  // After the post-loop checks, which send the release_sf and budget
  // requests the timed mix does not hold.
  const RegistrySnapshot& after_checks;
  Tracer& tracer;
  Checker& check;
  std::vector<Metric>& metrics;
};

// Per-layer probes of the traced run (probes.cc).
void RunLayerProbes(ProbeContext& context);

// Runs one workload and prints the result line. Returns the exit code.
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
