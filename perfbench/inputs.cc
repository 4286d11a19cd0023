#include "inputs.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "graph/graph.h"
#include "graph/graph_io.h"

namespace perfbench {

std::uint64_t BenchRng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t BenchRng::Below(std::uint64_t bound) { return Next() % bound; }

double BenchRng::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double BenchRng::Laplace(double scale) {
  const double u = Unit() - 0.5;
  const double magnitude = -scale * std::log(1.0 - 2.0 * std::fabs(u));
  return u < 0 ? -magnitude : magnitude;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kLpWarm, Workload::kReleaseStream}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLpWarm:
      return "lp_warm";
    case Workload::kReleaseStream:
      return "release_stream";
  }
  return "?";
}

namespace {

// Blocks are appended on fresh vertex ranges in increasing order, and the
// pairs inside a block are emitted in (i, j) order, so the edge list stays
// sorted without a final sort.
void AppendGnp(InputGraph& g, int size, double p, BenchRng& rng) {
  const int base = g.n;
  for (int i = 0; i < size; ++i) {
    for (int j = i + 1; j < size; ++j) {
      if (rng.Unit() < p) g.edges.emplace_back(base + i, base + j);
    }
  }
  g.blocks.emplace_back(base, base + size);
  g.n += size;
}

void AppendClique(InputGraph& g, int size) {
  const int base = g.n;
  for (int i = 0; i < size; ++i) {
    for (int j = i + 1; j < size; ++j) g.edges.emplace_back(base + i, base + j);
  }
  g.blocks.emplace_back(base, base + size);
  g.n += size;
}

// Entity-resolution shape: each entity is a clique of 1..max_records
// duplicate records, until `target_vertices` records exist.
void AppendEntities(InputGraph& g, int target_vertices, int max_records,
                    BenchRng& rng) {
  while (g.n < target_vertices) {
    int size = 1 + static_cast<int>(rng.Below(max_records));
    if (g.n + size > target_vertices) size = target_vertices - g.n;
    AppendClique(g, size);
  }
}

bool WriteNdpgV1(const InputGraph& g, const std::string& path) {
  // Little-endian NDPG v1 (docs/SERVING.md): magic, version 1, i64 counts,
  // then u32 (u, v) records in ascending order.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  auto put = [&out](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) out.put(static_cast<char>(value >> (8 * i)));
  };
  out.write("NDPG", 4);
  put(1, 4);
  put(static_cast<std::uint64_t>(g.n), 8);
  put(g.edges.size(), 8);
  for (const auto& [u, v] : g.edges) {
    put(static_cast<std::uint32_t>(u), 4);
    put(static_cast<std::uint32_t>(v), 4);
  }
  return static_cast<bool>(out.flush());
}

bool WriteNdpgV2(const InputGraph& g, const std::string& path,
                 std::string* error) {
  std::vector<nodedp::Edge> edges;
  edges.reserve(g.edges.size());
  for (const auto& [u, v] : g.edges) edges.push_back({u, v});
  const nodedp::Graph graph =
      nodedp::Graph::FromSortedEdges(g.n, std::move(edges));
  const nodedp::Status status = nodedp::WriteGraphV2File(graph, path);
  if (!status.ok()) *error = status.ToString();
  return status.ok();
}

}  // namespace

// Few enough entities that the serving loop's working set stays in a
// core's own cache (see README.md); a pool large enough for the one batch
// per 25 ms slot of a 100 s run.
constexpr int kEntities = 1500;
constexpr int kPool = 4000;
// release_stream's idle tenant: enough tiny clique LPs (~56k) that its
// set-up lasts seconds, long enough to average out which CPUs it ran on.
constexpr int kBulkEntities = 75000;

WorkloadInputs MakeInputs(Workload w, std::uint64_t seed, bool with_approx) {
  BenchRng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<int>(w));
  WorkloadInputs in;
  if (w == Workload::kLpWarm) {
    // Many mid-size dense-ish components: the LP work is ~200 cells of
    // similar cost (beside the entities' tiny clique cells), not one
    // straggler cell.
    for (int i = 0; i < 50; ++i) AppendGnp(in.exact, 200, 6.0 / 200, rng);
    for (int i = 0; i < 54; ++i) AppendGnp(in.exact, 150, 5.0 / 150, rng);
  }
  // Entity resolution: entities of 1..8 duplicate records, each a clique,
  // plus unmatched records that update batches add to entities.
  in.entity_begin = static_cast<int>(in.exact.blocks.size());
  for (int e = 0; e < kEntities; ++e) {
    AppendClique(in.exact, 1 + static_cast<int>(rng.Below(8)));
  }
  in.pool_begin = in.exact.n;
  in.exact.n += kPool;
  if (w == Workload::kReleaseStream && with_approx) {
    AppendEntities(in.approx, kApproxVertices, /*max_records=*/4, rng);
    for (int e = 0; e < kBulkEntities; ++e) {
      AppendClique(in.bulk, 1 + static_cast<int>(rng.Below(8)));
    }
  }
  return in;
}

bool WriteInputs(const WorkloadInputs& inputs, const std::string& dir,
                 std::string* error) {
  if (!WriteNdpgV1(inputs.exact, dir + "/" + kExactFile)) {
    *error = "cannot write " + dir + "/" + kExactFile;
    return false;
  }
  if (inputs.bulk.n > 0 && !WriteNdpgV1(inputs.bulk, dir + "/" + kBulkFile)) {
    *error = "cannot write " + dir + "/" + kBulkFile;
    return false;
  }
  if (inputs.approx.n > 0) {
    return WriteNdpgV2(inputs.approx, dir + "/" + kApproxFile, error);
  }
  return WriteNdpgV2(inputs.exact, dir + "/" + kExactV2File, error);
}

UpdatePlan::UpdatePlan(std::uint64_t seed, const WorkloadInputs& inputs)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 7),
      inputs_(inputs),
      next_pool_vertex_(inputs.pool_begin),
      joined_(inputs.exact.blocks.size()) {}

std::vector<std::pair<int, int>> UpdatePlan::NextBatch() {
  // One unmatched record joins a random entity: an edge to every record of
  // it, so the entity stays a clique and the number of non-trivial
  // components stays the same. Plus one re-delivered existing edge, which
  // the server must count as a duplicate. Once the pool is used up,
  // batches are re-deliveries only.
  std::vector<std::pair<int, int>> batch;
  const auto& blocks = inputs_.exact.blocks;
  const auto& edges = inputs_.exact.edges;
  if (next_pool_vertex_ < inputs_.exact.n) {
    const int record = next_pool_vertex_++;
    const int entity =
        inputs_.entity_begin +
        static_cast<int>(rng_.Below(blocks.size() - inputs_.entity_begin));
    for (int v = blocks[entity].first; v < blocks[entity].second; ++v) {
      batch.emplace_back(v, record);
    }
    for (int v : joined_[entity]) batch.emplace_back(v, record);
    joined_[entity].push_back(record);
  }
  batch.push_back(edges[rng_.Below(edges.size())]);
  return batch;
}

}  // namespace perfbench
