// perfbench: the repository benchmark's program (see README.md).
//
//   perfbench gen --workload W --seed S --dir D
//       writes the workload's graph files into D;
//   perfbench run --workload W --seed S --seconds T --trace 0|1 --dir D
//                 [--t0-ns N]
//       runs the workload against the files in D and prints the result
//       line; N is the steady-clock time at which the caller started this
//       process, so set-up time includes process start;
//   perfbench selftest
//       shows every output check failing on a perturbed value.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "checks.h"
#include "inputs.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
int RunSelfTest();
}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run|selftest --workload W --seed S "
               "[--seconds T] [--trace 0|1] --dir D [--t0-ns N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::int64_t main_ns = NowNs();
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "selftest") return RunSelfTest();

  RunOptions options;
  options.t0_ns = main_ns;
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--t0-ns") {
      options.t0_ns = std::strtoll(value, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (!ParseWorkload(workload, &options.workload) || options.dir.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }

  if (mode == "gen") {
    std::string error;
    const WorkloadInputs inputs = MakeInputs(options.workload, options.seed);
    if (!WriteInputs(inputs, options.dir, &error)) {
      std::fprintf(stderr, "gen: %s\n", error.c_str());
      return 1;
    }
    if (inputs.approx.n > 0) {
      // The approx tier's truth, so the workload process need not hold its
      // own copy of the million-vertex graph.
      std::ofstream out(options.dir + "/" + kApproxSizesFile);
      out << inputs.approx.n << "\n";
      for (const auto& [size, count] :
           ComponentSizes(BuildOracle(inputs.approx, false))) {
        out << size << " " << count << "\n";
      }
      if (!out.flush()) return 1;
    }
    return 0;
  }
  if (mode == "run") {
    // Fixed pool width per workload, set before the library starts its
    // global pool.
    setenv("NODEDP_THREADS", std::to_string(kPoolWidth).c_str(), 1);
    return RunWorkload(options);
  }
  return Usage();
}
