#include "oracle/workload.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace hublab::serve {
namespace {

TEST(WorkloadGenerator, DeterministicAndInRange) {
  // Large enough that the far-workload distance quartiles hold many
  // vertices; on tiny graphs the pools collapse to one vertex and every
  // seed generates the same (only possible) pair.
  Rng graph_rng(1);
  const Graph g = gen::connected_gnm(200, 400, graph_rng);
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator a(g, kind, 11);
    WorkloadGenerator b(g, kind, 11);
    WorkloadGenerator c(g, kind, 12);
    std::vector<std::pair<Vertex, Vertex>> from_a;
    bool differs_from_c = false;
    for (int i = 0; i < 200; ++i) {
      const auto pa = a.next();
      const auto pb = b.next();
      const auto pc = c.next();
      EXPECT_EQ(pa, pb) << "workload " << workload_kind_name(kind) << " not deterministic";
      EXPECT_LT(pa.first, g.num_vertices());
      EXPECT_LT(pa.second, g.num_vertices());
      differs_from_c = differs_from_c || pa != pc;
      from_a.push_back(pa);
    }
    EXPECT_TRUE(differs_from_c) << "seed is ignored for " << workload_kind_name(kind);
  }
}

TEST(WorkloadGenerator, ZipfSkewsTowardLowVertexIds) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(500, 1000, rng);
  WorkloadGenerator w(g, WorkloadKind::kZipf, 7);
  std::size_t low = 0;
  const int samples = 4000;
  for (int i = 0; i < samples; ++i) {
    const auto [u, v] = w.next();
    low += u < g.num_vertices() / 10 ? 1 : 0;
    low += v < g.num_vertices() / 10 ? 1 : 0;
  }
  // Uniform endpoints would put ~10% in the first decile; Zipf(1) puts the
  // bulk there.  Use a conservative threshold to stay seed-robust.
  EXPECT_GT(low, static_cast<std::size_t>(2 * samples * 2 / 10));
}

TEST(WorkloadGenerator, BlockMatchesStreamedNext) {
  // The server pre-generates pairs via block(); a caller pulling pairs one
  // at a time via next() must see the same stream for the same seed, or the
  // two would silently answer different workloads.
  Rng graph_rng(2);
  const Graph g = gen::connected_gnm(100, 200, graph_rng);
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator blocked(g, kind, 9);
    WorkloadGenerator streamed(g, kind, 9);
    const auto pairs = blocked.block(150);
    ASSERT_EQ(pairs.size(), 150u);
    for (const auto& pair : pairs) {
      EXPECT_EQ(pair, streamed.next()) << workload_kind_name(kind);
    }
  }
}

TEST(WorkloadGenerator, AllKindsSurviveSingleVertexGraph) {
  // Degenerate bounds: one vertex, no arcs.  The near walk has nowhere to
  // go, the far pools collapse to the root, zipf's CDF has one entry.
  const Graph g = GraphBuilder(1).build();
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator w(g, kind, 3);
    for (int i = 0; i < 50; ++i) {
      const auto [u, v] = w.next();
      EXPECT_EQ(u, 0u) << workload_kind_name(kind);
      EXPECT_EQ(v, 0u) << workload_kind_name(kind);
    }
  }
}

TEST(WorkloadGenerator, NearAndFarStayReachableOnDisconnectedGraphs) {
  // Two components (a path and a cycle) plus an isolated vertex.  Near
  // pairs follow real arcs out of u, so they cannot cross components; far
  // pairs come from the BFS quartiles of the highest-degree root, so both
  // endpoints live in that root's component.  Either way every generated
  // pair has a finite distance — uniform on this graph would not.
  GraphBuilder builder(11);
  for (Vertex v = 0; v + 1 < 5; ++v) builder.add_edge(v, v + 1);  // path 0..4
  for (Vertex v = 5; v < 10; ++v) builder.add_edge(v, 5 + (v - 4) % 5);  // cycle 5..9
  const Graph g = builder.build();  // vertex 10 stays isolated
  for (const WorkloadKind kind : {WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator w(g, kind, 17);
    for (int i = 0; i < 300; ++i) {
      const auto [u, v] = w.next();
      ASSERT_LT(u, g.num_vertices());
      ASSERT_LT(v, g.num_vertices());
      EXPECT_NE(sssp_distances(g, u)[v], kInfDist)
          << workload_kind_name(kind) << " produced unreachable pair " << u << "->" << v;
    }
  }
}

}  // namespace
}  // namespace hublab::serve
