// Seeded input generation for the repository benchmark.
//
// Inputs depend only on (workload, seed) and are produced with the
// benchmark's own generator, never the library's, so a change to the
// library's random streams cannot change what the benchmark measures.
// The program under test sees the inputs only as graph files.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// SplitMix64: a small, fully specified generator, so inputs are stable
// across compilers and library versions.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  std::uint64_t Below(std::uint64_t bound);  // uniform in [0, bound)
  double Unit();                             // uniform in [0, 1)
  double Laplace(double scale);

 private:
  std::uint64_t state_;
};

// A simple undirected graph as the benchmark knows it: normalized u < v
// edges, sorted and duplicate-free, plus the vertex ranges of the blocks
// it was generated from.
struct InputGraph {
  int n = 0;
  std::vector<std::pair<int, int>> edges;
  std::vector<std::pair<int, int>> blocks;  // [begin, end) per block
};

enum class Workload { kLpWarm, kReleaseStream };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

struct WorkloadInputs {
  InputGraph exact;   // served by the exact tier, loaded with `load`
  InputGraph approx;  // release_stream only: served with `load_mmap`
  // release_stream only: a second tenant's entity graph, loaded and warmed
  // at set-up beside the served one and not queried afterwards.
  InputGraph bulk;
  // exact.blocks[entity_begin..] are the entity cliques; isolated vertices
  // [pool_begin, exact.n) are unmatched records that updates add to them.
  int entity_begin = 0;
  int pool_begin = 0;
};

// The approx-tier graph is generated after the exact one, from the same
// stream, so `with_approx = false` yields the same exact graph cheaply.
WorkloadInputs MakeInputs(Workload w, std::uint64_t seed,
                          bool with_approx = true);

// release_stream's approx-tier graph: entities of 1..4 records, so every
// component is a clique of at most 4 and the public degree promise is 4.
inline constexpr int kApproxVertices = 1000000;
inline constexpr int kApproxDeltaMax = 4;

// File names inside a run directory.
inline constexpr const char* kExactFile = "exact.ndpg";
inline constexpr const char* kExactV2File = "exact.v2";
inline constexpr const char* kApproxFile = "approx.v2";
inline constexpr const char* kBulkFile = "bulk.ndpg";
// The approx graph's component-size histogram ("<n>" then "<size> <count>"
// lines), computed by the benchmark when it writes the graph.
inline constexpr const char* kApproxSizesFile = "approx.sizes";

// Writes the workload's graph files into `dir` (NDPG v1 for the exact
// tier, NDPG v2 for the mmap-served files). Returns false on I/O failure.
bool WriteInputs(const WorkloadInputs& inputs, const std::string& dir,
                 std::string* error);

// The deterministic update stream: batch k is a function of (inputs, seed,
// k) and of nothing the program returns.
class UpdatePlan {
 public:
  UpdatePlan(std::uint64_t seed, const WorkloadInputs& inputs);
  std::vector<std::pair<int, int>> NextBatch();

 private:
  BenchRng rng_;
  const WorkloadInputs& inputs_;
  int next_pool_vertex_ = 0;
  // Records each entity gained from the pool so far.
  std::vector<std::vector<int>> joined_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
