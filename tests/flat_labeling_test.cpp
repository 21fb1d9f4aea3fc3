#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "hub/flat_labeling.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "tests/heavy_weight_graphs.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

/// Every pair must query identically through the vector and the flat
/// representation — distance *and* meeting hub (the merge visits common
/// hubs in the same ascending order, so ties break the same way).
void expect_query_equivalence(const Graph& g, const HubLabeling& labels) {
  const FlatHubLabeling flat(labels);
  ASSERT_EQ(flat.num_vertices(), labels.num_vertices());
  EXPECT_EQ(flat.total_hubs(), labels.total_hubs());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const HubQueryResult a = labels.query_with_hub(u, v);
      const HubQueryResult b = flat.query_with_hub(u, v);
      ASSERT_EQ(a.dist, b.dist) << "query(" << u << "," << v << ")";
      ASSERT_EQ(a.meeting_hub, b.meeting_hub) << "hub(" << u << "," << v << ")";
      ASSERT_EQ(flat.query(u, v), a.dist) << "query(" << u << "," << v << ")";
      metrics::QueryStats stats;
      const HubQueryResult c = flat.query_with_stats(u, v, stats);
      ASSERT_EQ(a.dist, c.dist) << "stats(" << u << "," << v << ")";
      ASSERT_EQ(a.meeting_hub, c.meeting_hub) << "stats(" << u << "," << v << ")";
    }
  }
}

TEST(FlatHubLabeling, MatchesVectorQueriesOnPllLabeling) {
  Rng rng(21);
  const Graph g = gen::connected_gnm(60, 120, rng);
  expect_query_equivalence(g, pruned_landmark_labeling(g));
}

TEST(FlatHubLabeling, MatchesVectorQueriesOnGrid) {
  const Graph g = gen::grid(6, 6);
  expect_query_equivalence(g, pruned_landmark_labeling(g));
}

TEST(FlatHubLabeling, HandlesDisconnectedPairs) {
  // Two components: cross-component queries must stay kInfDist through the
  // sentinel-terminated merge.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();
  const HubLabeling labels = pruned_landmark_labeling(g);
  const FlatHubLabeling flat(labels);
  EXPECT_EQ(flat.query(0, 5), kInfDist);
  EXPECT_EQ(flat.query_with_hub(2, 3).meeting_hub, kInvalidVertex);
  EXPECT_EQ(flat.query(0, 2), 2u);
  EXPECT_EQ(flat.query(3, 5), 2u);
}

TEST(FlatHubLabeling, PerVertexSpansMatchSource) {
  Rng rng(22);
  const Graph g = gen::connected_gnm(30, 60, rng);
  const HubLabeling labels = pruned_landmark_labeling(g);
  const FlatHubLabeling flat(labels);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto src = labels.label(v);
    const auto hubs = flat.hubs(v);
    ASSERT_EQ(flat.label_size(v), src.size());
    ASSERT_EQ(hubs.size(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(hubs[i], src[i].hub);
      EXPECT_EQ(flat.dist(v, i), src[i].dist);
      if (i > 0) {
        EXPECT_LT(hubs[i - 1], hubs[i]);  // ascending, deduplicated
      }
    }
  }
}

TEST(FlatHubLabeling, EmptyLabelsQueryInfinite) {
  HubLabeling empty(4);
  empty.finalize();
  const FlatHubLabeling flat(empty);
  EXPECT_EQ(flat.num_vertices(), 4u);
  EXPECT_EQ(flat.total_hubs(), 0u);
  EXPECT_EQ(flat.label_size(2), 0u);
  EXPECT_EQ(flat.query(0, 3), kInfDist);
}

TEST(FlatHubLabeling, DefaultConstructedIsEmpty) {
  const FlatHubLabeling flat;
  EXPECT_EQ(flat.num_vertices(), 0u);
  EXPECT_EQ(flat.total_hubs(), 0u);
}

TEST(FlatHubLabeling, MemoryBytesCoversArrays) {
  Rng rng(23);
  const Graph g = gen::connected_gnm(40, 80, rng);
  const HubLabeling labels = pruned_landmark_labeling(g);
  const FlatHubLabeling flat(labels);
  // Lower bound: the exact payload of the three arrays (offsets n+1, one
  // sentinel per vertex after each label), at the distance column's width.
  const std::size_t n = g.num_vertices();
  const std::size_t slots = labels.total_hubs() + n;
  const std::size_t floor_bytes =
      (n + 1) * sizeof(std::size_t) + slots * (sizeof(Vertex) + flat.dist_bytes());
  EXPECT_EQ(flat.dist_bytes(), sizeof(Dist32));
  EXPECT_GE(flat.memory_bytes(), floor_bytes);
  // The PLL builder sizes every array exactly: 8 bytes per entry.
  EXPECT_EQ(pruned_landmark_labeling_flat(g, make_vertex_order(g, VertexOrder::kDegreeDescending))
                .memory_bytes(),
            (n + 1) * sizeof(std::size_t) + slots * (sizeof(Vertex) + sizeof(Dist32)));
  // The SoA layout never pays the per-vertex vector headers, so for any
  // real labeling it undercuts the vector-of-vectors heap footprint.
  EXPECT_LT(flat.memory_bytes(), labels.memory_bytes());
}

/// The column width follows the largest label distance, for both the
/// conversion and the PLL builder's direct path, which agree entry for
/// entry; the payload is exact at that width; and every query agrees with
/// the vector labeling.
void expect_column_width(const Graph& g, std::size_t dist_bytes) {
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural);
  const HubLabeling labels = pruned_landmark_labeling(g, order);
  const FlatHubLabeling converted(labels);
  const FlatHubLabeling direct = pruned_landmark_labeling_flat(g, order);
  EXPECT_EQ(converted.dist_bytes(), dist_bytes);
  EXPECT_EQ(direct.dist_bytes(), dist_bytes);
  const std::size_t n = g.num_vertices();
  EXPECT_EQ(direct.memory_bytes(), (n + 1) * sizeof(std::size_t) +
                                       (labels.total_hubs() + n) * (sizeof(Vertex) + dist_bytes));
  ASSERT_EQ(direct.total_hubs(), labels.total_hubs());
  for (Vertex v = 0; v < n; ++v) {
    const auto src = labels.label(v);
    ASSERT_EQ(direct.label_size(v), src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(direct.hubs(v)[i], src[i].hub) << "v=" << v << " entry " << i;
      ASSERT_EQ(direct.dist(v, i), src[i].dist) << "v=" << v << " entry " << i;
      ASSERT_EQ(converted.dist(v, i), src[i].dist) << "v=" << v << " entry " << i;
    }
  }
  expect_query_equivalence(g, labels);
}

TEST(FlatHubLabeling, NarrowColumnWidensSumsPastTwoToTheThirtyTwo) {
  expect_column_width(heavy::wide_sums(), sizeof(Dist32));
}

TEST(FlatHubLabeling, LargestNarrowDistanceKeepsNarrowColumn) {
  expect_column_width(heavy::narrow_limit(), sizeof(Dist32));
}

TEST(FlatHubLabeling, DistancePastNarrowTakesU64Column) {
  expect_column_width(heavy::needs_u64(), sizeof(Dist));
}

TEST(FlatHubLabeling, AdoptsU64Column) {
  // Two labels {0: 0} and {0: 2^33, 1: 0}, handed over as a u64 column.
  const FlatHubLabeling flat(2, {0, 2, 5}, {0, kInvalidVertex, 0, 1, kInvalidVertex},
                             std::vector<Dist>{0, kInfDist, Dist{1} << 33, 0, kInfDist});
  EXPECT_EQ(flat.dist_bytes(), sizeof(Dist));
  EXPECT_EQ(flat.dist(1, 0), Dist{1} << 33);
  EXPECT_EQ(flat.query(0, 1), Dist{1} << 33);
  EXPECT_EQ(flat.memory_bytes(), 3 * sizeof(std::size_t) + 5 * (sizeof(Vertex) + sizeof(Dist)));
}

}  // namespace
}  // namespace hublab
