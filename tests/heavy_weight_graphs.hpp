#pragma once

// Weighted fixtures at the 32-bit boundary of FlatHubLabeling's distance
// column, shared by flat_labeling_test, batch_query_test and pll_bp_test.

#include <algorithm>
#include <cstdint>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "hub/labeling.hpp"
#include "util/rng.hpp"

namespace hublab::heavy {

/// Gate edges of heavy_arms(): every label distance stays below 2^32 - 1,
/// but a cross-arm sum through a center exceeds 2^32.
inline constexpr Weight kGateWeight = 3'000'000'000U;

/// Three centers (vertices 0-2, a weight-1 triangle) and `arms` light
/// weighted clusters of 40 vertices.  Three gate vertices per arm reach
/// the centers over edges of kGateWeight plus at most 50, one per center,
/// so arms meet only at the centers.  Under the natural order the centers
/// rank first and cover every cross-arm path, so every label holds the
/// centers at about kGateWeight and its own arm's hubs at small distances,
/// and labels run to 16 entries and beyond.
inline GraphBuilder heavy_arms(std::size_t arms, std::uint64_t seed) {
  constexpr std::size_t kArm = 40;
  Rng rng(seed);
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(0, 2, 1);
  for (std::size_t a = 0; a < arms; ++a) {
    const Graph arm = gen::randomize_weights(gen::connected_gnm(kArm, 100, rng), 9, rng);
    const auto base = static_cast<Vertex>(b.num_vertices());
    for (std::size_t i = 0; i < kArm; ++i) b.add_vertex();
    for (Vertex u = 0; u < kArm; ++u) {
      for (const Arc& e : arm.arcs(u)) {
        if (u < e.to) b.add_edge(base + u, base + e.to, e.weight);
      }
    }
    for (Vertex c = 0; c < 3; ++c) {
      const auto gate = base + static_cast<Vertex>(rng.next_below(kArm));
      b.add_edge(gate, c, kGateWeight + static_cast<Weight>(rng.next_below(51)));
    }
  }
  return b;
}

/// 1. Every label distance below 2^32 - 1, common-hub sums above 2^32.
inline Graph wide_sums() { return heavy_arms(6, 71).build(); }

/// 2. As wide_sums(), plus a pendant on center 0 at exactly 2^32 - 2, the
///    largest label distance the narrow column holds.
inline Graph narrow_limit() {
  GraphBuilder b = heavy_arms(6, 72);
  b.add_edge(0, b.add_vertex(), 0xFFFFFFFEU);
  return b.build();
}

/// 3. As wide_sums(), plus a pendant on center 0 at exactly 2^32 - 1, the
///    smallest label distance that needs the u64 column.
inline Graph needs_u64() {
  GraphBuilder b = heavy_arms(6, 73);
  b.add_edge(0, b.add_vertex(), 0xFFFFFFFFU);
  return b.build();
}

/// Largest distance over every entry of `labels`.
inline Dist max_label_dist(const HubLabeling& labels) {
  Dist best = 0;
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    for (const HubEntry& e : labels.label(v)) best = std::max(best, e.dist);
  }
  return best;
}

}  // namespace hublab::heavy
