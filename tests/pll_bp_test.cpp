#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "hub/flat_labeling.hpp"
#include "hub/labeling.hpp"
#include "hub/order.hpp"
#include "hub/pll.hpp"
#include "lowerbound/gadget.hpp"
#include "rs/rs_graph.hpp"
#include "tests/heavy_weight_graphs.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

/// \file pll_bp_test.cpp
/// The bit-parallel construction kernel's contract: for every graph, order
/// and configuration, the labels are *byte-identical* to the scalar
/// builder's (`bp_roots = 0`), and invariant in the thread count — also
/// when threads > 1 switches the builder to parallel root batches and a
/// label arena sharded by vertex range, and whichever entry width (8 or
/// 16 bytes) the graph's weights allow.

namespace hublab {
namespace {

/// Exact per-entry comparison of two finalized labelings.
void expect_same_labels(const HubLabeling& a, const HubLabeling& b, const std::string& what) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << what;
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto la = a.label(v);
    const auto lb = b.label(v);
    ASSERT_EQ(la.size(), lb.size()) << what << ": label size differs at v=" << v;
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i].hub, lb[i].hub) << what << ": hub differs at v=" << v << " entry " << i;
      ASSERT_EQ(la[i].dist, lb[i].dist) << what << ": dist differs at v=" << v << " entry " << i;
    }
  }
}

/// Build with bp_roots = 0 (pure scalar) and with the given config; the
/// two labelings must match entry for entry.
void expect_bp_matches_scalar(const Graph& g, const std::vector<Vertex>& order,
                              const PllConfig& config, const std::string& what) {
  const HubLabeling scalar = pruned_landmark_labeling(g, order, PllConfig{0, 1});
  const HubLabeling bp = pruned_landmark_labeling(g, order, config);
  expect_same_labels(scalar, bp, what);
}

/// The full order x bp_roots sweep on one graph.
void sweep_graph(const Graph& g, const std::string& name) {
  for (const VertexOrder mode :
       {VertexOrder::kDegreeDescending, VertexOrder::kNatural, VertexOrder::kRandom}) {
    const std::vector<Vertex> order = make_vertex_order(g, mode, 7);
    for (const std::size_t roots : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                                    g.num_vertices() + 10}) {
      expect_bp_matches_scalar(g, order, PllConfig{roots, 1},
                               name + " mode=" + std::to_string(static_cast<int>(mode)) +
                                   " bp_roots=" + std::to_string(roots));
    }
  }
}

TEST(PllBp, MatchesScalarOnStructuredFamilies) {
  sweep_graph(gen::path(40), "path40");
  sweep_graph(gen::cycle(33), "cycle33");
  sweep_graph(gen::grid(7, 9), "grid7x9");
  sweep_graph(gen::star(24), "star24");
  sweep_graph(gen::binary_tree(63), "btree63");
}

TEST(PllBp, MatchesScalarOnRandomSparse) {
  Rng rng(42);
  sweep_graph(gen::connected_gnm(160, 320, rng), "gnm160");
  sweep_graph(gen::barabasi_albert(150, 3, rng), "ba150");
  sweep_graph(gen::random_regular(120, 3, rng), "reg120");
}

TEST(PllBp, MatchesScalarOnFig1Gadgets) {
  // The unweighted degree-3 expansions G_{b,l} of the paper's Fig-1 gadget.
  // G_{2,1} (~2k vertices after path expansion) gets the full order x
  // bp_roots sweep; the larger G_{2,2} (~25k vertices) gets one
  // representative configuration to keep the test fast.
  {
    const lb::LayeredGadget h(lb::GadgetParams{2, 1});
    const lb::Degree3Gadget g(h);
    sweep_graph(g.graph(), "G_{2,1}");
  }
  {
    const lb::LayeredGadget h(lb::GadgetParams{2, 2});
    const lb::Degree3Gadget g(h);
    const std::vector<Vertex> order =
        make_vertex_order(g.graph(), VertexOrder::kDegreeDescending, 0);
    expect_bp_matches_scalar(g.graph(), order, PllConfig{64, 1}, "G_{2,2}");
  }
}

TEST(PllBp, MatchesScalarOnRsGraph) {
  const rs::RsGraph rs = rs::behrend_rs_graph(40);
  sweep_graph(rs.graph, "rs40");
}

TEST(PllBp, MatchesScalarOnDisconnectedGraph) {
  GraphBuilder b(40);
  for (Vertex v = 0; v + 1 < 20; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 21; v + 1 < 40; ++v) b.add_edge(v, v + 1);
  sweep_graph(b.build(), "two-paths");
}

TEST(PllBp, WeightedGraphsDisableTablesAndStillMatch) {
  Rng rng(5);
  const Graph g = gen::road_like(8, 8, 0.15, 9, rng);
  ASSERT_TRUE(g.is_weighted());
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kDegreeDescending, 0);
  EXPECT_FALSE(BitParallelRoots(g, order, 64, 1).active());
  expect_bp_matches_scalar(g, order, PllConfig{64, 1}, "road-like weighted");
}

TEST(PllBp, BpBuildIsExact) {
  // Independently of scalar equality: the BP build is a correct labeling.
  Rng rng(9);
  const Graph g = gen::connected_gnm(120, 260, rng);
  const HubLabeling l = pruned_landmark_labeling(g, VertexOrder::kDegreeDescending, 0,
                                                 PllConfig{16, 1});
  const auto truth = DistanceMatrix::compute(g);
  EXPECT_FALSE(verify_labeling(g, l, truth).has_value());
}

TEST(PllBp, FlatBuildMatchesConvertedVectorBuild) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(100, 220, rng);
  for (const std::size_t roots : {std::size_t{0}, std::size_t{16}, std::size_t{64}}) {
    const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kDegreeDescending, 0);
    const FlatHubLabeling direct = pruned_landmark_labeling_flat(g, order, PllConfig{roots, 1});
    const FlatHubLabeling converted(pruned_landmark_labeling(g, order, PllConfig{roots, 1}));
    ASSERT_EQ(direct.num_vertices(), converted.num_vertices());
    ASSERT_EQ(direct.total_hubs(), converted.total_hubs());
    ASSERT_EQ(direct.dist_bytes(), converted.dist_bytes());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto ha = direct.hubs(v);
      const auto hb = converted.hubs(v);
      ASSERT_EQ(ha.size(), hb.size()) << "v=" << v << " bp_roots=" << roots;
      for (std::size_t i = 0; i < ha.size(); ++i) {
        ASSERT_EQ(ha[i], hb[i]) << "v=" << v << " entry " << i;
        ASSERT_EQ(direct.dist(v, i), converted.dist(v, i)) << "v=" << v << " entry " << i;
      }
    }
  }
}

TEST(PllBp, EstimateIsUpperBoundAndExactAtRoots) {
  Rng rng(11);
  const Graph g = gen::connected_gnm(90, 200, rng);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kDegreeDescending, 0);
  const BitParallelRoots bp(g, order, 32, 1);
  ASSERT_TRUE(bp.active());
  const auto truth = DistanceMatrix::compute(g);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_GE(bp.estimate(u, v), truth.at(u, v)) << "u=" << u << " v=" << v;
    }
  }
  for (std::size_t i = 0; i < bp.num_roots(); ++i) {
    const Vertex root = order[i];
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(bp.estimate(root, v, i), truth.at(root, v)) << "root=" << root;
    }
  }
}

TEST(PllBp, TableRowsMatchBfsDistances) {
  const Graph g = gen::grid(6, 7);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural, 0);
  const BitParallelRoots bp(g, order, 8, 1);
  ASSERT_EQ(bp.num_roots(), 8u);
  const auto truth = DistanceMatrix::compute(g);
  for (std::size_t i = 0; i < bp.num_roots(); ++i) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(bp.dist_row(v)[i], truth.at(order[i], v));
    }
  }
}

TEST(PllBp, ZeroRootsAndTinyGraphs) {
  EXPECT_FALSE(BitParallelRoots(gen::path(5), make_vertex_order(gen::path(5),
                                                                VertexOrder::kNatural, 0),
                                0, 1)
                   .active());
  // n = 1 and n = 2 corners through the full builder.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}}) {
    const Graph g = gen::path(n);
    const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural, 0);
    expect_bp_matches_scalar(g, order, PllConfig{64, 1}, "path" + std::to_string(n));
  }
}

TEST(ParallelDeterminism, PllBpThreadCountInvariant) {
  Rng rng(17);
  const Graph g = gen::connected_gnm(200, 420, rng);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kDegreeDescending, 0);
  const HubLabeling one = pruned_landmark_labeling(g, order, PllConfig{32, 1});
  const HubLabeling four = pruned_landmark_labeling(g, order, PllConfig{32, 4});
  expect_same_labels(one, four, "1-vs-4 threads, bp_roots=32");
}

TEST(ParallelDeterminism, PllBpTablesThreadCountInvariant) {
  Rng rng(23);
  const Graph g = gen::barabasi_albert(180, 3, rng);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kDegreeDescending, 0);
  const BitParallelRoots one(g, order, 48, 1);
  const BitParallelRoots four(g, order, 48, 4);
  ASSERT_EQ(one.num_roots(), four.num_roots());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t i = 0; i < one.num_roots(); ++i) {
      ASSERT_EQ(one.dist_row(v)[i], four.dist_row(v)[i]);
      ASSERT_EQ(one.sm1_row(v)[i], four.sm1_row(v)[i]);
      ASSERT_EQ(one.s0_row(v)[i], four.s0_row(v)[i]);
    }
  }
}

TEST(ParallelDeterminism, PllBpScalarPathThreadCountInvariant) {
  // Threads alone (no BP tables) must not perturb labels either.
  Rng rng(29);
  const Graph g = gen::connected_gnm(150, 330, rng);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kRandom, 4);
  const HubLabeling one = pruned_landmark_labeling(g, order, PllConfig{0, 1});
  const HubLabeling four = pruned_landmark_labeling(g, order, PllConfig{0, 4});
  expect_same_labels(one, four, "1-vs-4 threads, scalar");
}

/// What one build leaves in the registry: every counter, the label-size
/// histogram and the frontier sketch.  Empty when metrics are compiled
/// out, so the comparisons below hold trivially there.
struct BuildRecord {
  HubLabeling labels;
  std::vector<metrics::CounterSnapshot> counters;
  std::vector<metrics::HistogramSnapshot> histograms;
  std::vector<metrics::SketchSnapshot> sketches;
  std::vector<metrics::GaugeSnapshot> gauges;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    for (const auto& c : counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }

  [[nodiscard]] std::int64_t gauge(const std::string& name) const {
    for (const auto& g : gauges) {
      if (g.name == name) return g.value;
    }
    return 0;
  }
};

BuildRecord record_build(const Graph& g, const std::vector<Vertex>& order,
                         const PllConfig& config) {
  metrics::registry().reset();
  BuildRecord r{pruned_landmark_labeling(g, order, config), {}, {}, {}, {}};
  r.counters = metrics::registry().counters();
  r.histograms = metrics::registry().histograms();
  r.sketches = metrics::registry().sketches();
  r.gauges = metrics::registry().gauges();
  return r;
}

void expect_same_histograms(const std::vector<metrics::HistogramSnapshot>& a,
                            const std::vector<metrics::HistogramSnapshot>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << what;
    EXPECT_EQ(a[i].count, b[i].count) << what << " " << a[i].name;
    EXPECT_EQ(a[i].sum, b[i].sum) << what << " " << a[i].name;
    EXPECT_EQ(a[i].max, b[i].max) << what << " " << a[i].name;
    EXPECT_EQ(a[i].p50, b[i].p50) << what << " " << a[i].name;
  }
}

TEST(ParallelDeterminism, PllBatchesWeightedRoadAcrossOrdersAndThreads) {
  // Weighted graphs run pruned Dijkstra, so every rank is searched; the
  // batch loop must reproduce the sequential labels at every thread count.
  Rng rng(31);
  const Graph g = gen::road_like(18, 18, 0.2, 10, rng);
  ASSERT_TRUE(g.is_weighted());
  Rng order_rng(7);
  const std::vector<std::pair<std::string, std::vector<Vertex>>> orders = {
      {"degree", make_vertex_order(g, VertexOrder::kDegreeDescending, 0)},
      {"betweenness", betweenness_order(g, 32, order_rng)},
  };
  for (const auto& [name, order] : orders) {
    const BuildRecord one = record_build(g, order, PllConfig{64, 1});
    for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      const std::string what = name + " threads=" + std::to_string(threads);
      const BuildRecord many = record_build(g, order, PllConfig{64, threads});
      expect_same_labels(one.labels, many.labels, what);
      EXPECT_EQ(one.counter("pll.label_pushes"), many.counter("pll.label_pushes")) << what;
      expect_same_histograms(one.histograms, many.histograms, what);
    }
  }
}

TEST(ParallelDeterminism, PllBatchesMatchScalarOnFig1GadgetsAndDisconnected) {
  {
    const lb::LayeredGadget h(lb::GadgetParams{2, 1});
    const lb::Degree3Gadget g(h);
    const std::vector<Vertex> order =
        make_vertex_order(g.graph(), VertexOrder::kDegreeDescending, 0);
    expect_bp_matches_scalar(g.graph(), order, PllConfig{64, 4}, "G_{2,1} threads=4");
  }
  {
    const lb::LayeredGadget h(lb::GadgetParams{3, 1});
    expect_bp_matches_scalar(
        h.graph(), make_vertex_order(h.graph(), VertexOrder::kDegreeDescending, 0),
        PllConfig{64, 4}, "H_{3,1} threads=4");
  }
  GraphBuilder b(90);
  for (Vertex v = 0; v + 1 < 40; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 41; v + 1 < 85; ++v) b.add_edge(v, v + 1);
  b.add_edge(41, 84);
  const Graph disconnected = b.build();  // a path, a cycle and isolated vertices
  for (const VertexOrder mode : {VertexOrder::kDegreeDescending, VertexOrder::kRandom}) {
    expect_bp_matches_scalar(disconnected, make_vertex_order(disconnected, mode, 3),
                             PllConfig{64, 4}, "disconnected threads=4");
    expect_bp_matches_scalar(disconnected, make_vertex_order(disconnected, mode, 3),
                             PllConfig{0, 4}, "disconnected bp_roots=0 threads=4");
  }
}

TEST(ParallelDeterminism, PllBatchesOnGraphsSmallerThanABatch) {
  // n below the largest batch: the schedule's batch is cut at the last
  // rank, and with bp_roots >= n no rank is searched at all.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{17},
                              std::size_t{63}}) {
    Rng rng(n);
    const Graph g = n < 4 ? gen::path(n) : gen::connected_gnm(n, n + n / 2, rng);
    const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kRandom, 5);
    for (const std::size_t roots : {std::size_t{0}, std::size_t{2}, std::size_t{64}}) {
      expect_bp_matches_scalar(g, order, PllConfig{roots, 4},
                               "n=" + std::to_string(n) + " bp_roots=" + std::to_string(roots));
    }
  }
}

TEST(ParallelDeterminism, PllBatchCountersEqualAtTwoAndFourThreads) {
  // The batch schedule never reads the thread count, so every count >= 2
  // does the same speculative work: visits, prunes, cleaned candidates and
  // frontier peaks all match, not only the labels.
  Rng rng(37);
  const Graph weighted = gen::road_like(14, 14, 0.2, 10, rng);
  const Graph unweighted = gen::connected_gnm(400, 900, rng);
  for (const Graph* g : {&weighted, &unweighted}) {
    const std::vector<Vertex> order = make_vertex_order(*g, VertexOrder::kDegreeDescending, 0);
    const BuildRecord two = record_build(*g, order, PllConfig{16, 2});
    const BuildRecord four = record_build(*g, order, PllConfig{16, 4});
    const BuildRecord one = record_build(*g, order, PllConfig{16, 1});
    expect_same_labels(two.labels, four.labels, "2-vs-4 threads");
    ASSERT_EQ(two.counters.size(), four.counters.size());
    for (std::size_t i = 0; i < two.counters.size(); ++i) {
      EXPECT_EQ(two.counters[i].name, four.counters[i].name);
      EXPECT_EQ(two.counters[i].value, four.counters[i].value) << two.counters[i].name;
    }
    ASSERT_EQ(two.sketches.size(), four.sketches.size());
    for (std::size_t i = 0; i < two.sketches.size(); ++i) {
      EXPECT_EQ(two.sketches[i].count, four.sketches[i].count) << two.sketches[i].name;
      EXPECT_EQ(two.sketches[i].sum, four.sketches[i].sum) << two.sketches[i].name;
      EXPECT_EQ(two.sketches[i].max, four.sketches[i].max) << two.sketches[i].name;
    }
    // Speculation never adds label entries: pushes match the 1-thread
    // build, and every extra candidate is accounted for as cleaned.
    EXPECT_EQ(two.counter("pll.label_pushes"), one.counter("pll.label_pushes"));
    EXPECT_GE(two.counter("pll.visited"), one.counter("pll.visited"));
#if HUBLAB_METRICS_ENABLED
    EXPECT_GT(two.counter("pll.cleaned"), 0u) << "the batches never overlapped";
    EXPECT_EQ(two.counter("pll.visited") - one.counter("pll.visited"),
              two.counter("pll.pruned") - one.counter("pll.pruned") +
                  two.counter("pll.cleaned"));
#endif
  }
}

/// `base` with every weight redrawn from [1, max_weight] and the first
/// edge set to exactly max_weight, so (n - 1) * max_weight() is known.
Graph with_max_weight(const Graph& base, Weight max_weight, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(base.num_vertices());
  bool first = true;
  for (Vertex u = 0; u < base.num_vertices(); ++u) {
    for (const Arc& a : base.arcs(u)) {
      if (u >= a.to) continue;
      b.add_edge(u, a.to, first ? max_weight : 1 + static_cast<Weight>(rng.next_below(max_weight)));
      first = false;
    }
  }
  return b.build();
}

/// The arena contract on one graph: the entry width the weights allow,
/// labels byte-identical at 1-4 threads, exact against Dijkstra, run_flat
/// equal to the converted labeling, and the same search work at 2 and 4
/// threads.  `exhaustive` verifies every pair, otherwise a sample.
void expect_arena_contract(const Graph& g, const std::vector<Vertex>& order,
                           std::int64_t entry_bytes, bool exhaustive, const std::string& what) {
  const std::uint64_t bound = static_cast<std::uint64_t>(g.num_vertices() - 1) * g.max_weight();
  EXPECT_EQ(entry_bytes == 8, bound < 0xFFFFFFFFULL) << what << ": fixture on the wrong side";
  const BuildRecord one = record_build(g, order, PllConfig{64, 1});
  if (exhaustive) {
    EXPECT_FALSE(verify_labeling(g, one.labels, DistanceMatrix::compute(g)).has_value()) << what;
  } else {
    EXPECT_FALSE(verify_labeling_sampled(g, one.labels, 64, 11).has_value()) << what;
  }
  std::vector<BuildRecord> many;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    many.push_back(record_build(g, order, PllConfig{64, threads}));
    expect_same_labels(one.labels, many.back().labels, what + " threads=" + std::to_string(threads));
  }
#if HUBLAB_METRICS_ENABLED
  EXPECT_EQ(one.gauge("pll.arena_entry_bytes"), entry_bytes) << what;
  EXPECT_EQ(many.back().gauge("pll.arena_entry_bytes"), entry_bytes) << what;
  EXPECT_GE(one.gauge("pll.arena_bytes"),
            static_cast<std::int64_t>(one.labels.total_hubs()) * entry_bytes)
      << what;
  EXPECT_EQ(one.counter("pll.label_pushes"), one.labels.total_hubs()) << what;
#endif
  const BuildRecord& two = many.front();
  const BuildRecord& four = many.back();
  for (const char* name : {"pll.label_pushes", "pll.visited", "pll.pruned"}) {
    EXPECT_EQ(two.counter(name), four.counter(name)) << what << " " << name;
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const FlatHubLabeling direct = pruned_landmark_labeling_flat(g, order, PllConfig{64, threads});
    const FlatHubLabeling converted(one.labels);
    ASSERT_EQ(direct.total_hubs(), converted.total_hubs()) << what;
    ASSERT_EQ(direct.dist_bytes(), converted.dist_bytes()) << what;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto ha = direct.hubs(v);
      const auto hb = converted.hubs(v);
      ASSERT_EQ(ha.size(), hb.size()) << what << " v=" << v;
      for (std::size_t i = 0; i < ha.size(); ++i) {
        ASSERT_EQ(ha[i], hb[i]) << what << " v=" << v << " entry " << i;
        ASSERT_EQ(direct.dist(v, i), converted.dist(v, i)) << what << " v=" << v << " entry " << i;
      }
    }
  }
}

TEST(PllBp, HeavyArmsTakeSixteenByteArena) {
  // (n - 1) * max_weight() is far past 2^32 - 1 (gate edges of 3 * 10^9),
  // so no 32-bit distance is provable and the entries keep a u64 distance,
  // although every label distance of this fixture fits 32 bits.
  const Graph g = heavy::wide_sums();
  expect_arena_contract(g, make_vertex_order(g, VertexOrder::kNatural, 0), 16, true,
                        "heavy_arms");
  const Graph beyond = heavy::needs_u64();
  expect_arena_contract(beyond, make_vertex_order(beyond, VertexOrder::kNatural, 0), 16, true,
                        "needs_u64");
}

TEST(PllBp, WeightsJustBelowTheBoundTakeEightByteArena) {
  // n = 256, so n - 1 = 255 divides 2^32 - 1: max_weight = (2^32 - 1) / 255
  // - 1 puts (n - 1) * max_weight() at 2^32 - 256, inside the 8-byte
  // bound, and one more unit of weight lands exactly on 2^32 - 1.
  Rng rng(41);
  const Graph base = gen::road_like(16, 16, 0.2, 9, rng);
  ASSERT_EQ(base.num_vertices(), 256u);
  const auto max_weight = static_cast<Weight>(0xFFFFFFFFULL / 255 - 1);
  const Graph narrow = with_max_weight(base, max_weight, 3);
  const Graph wide = with_max_weight(base, max_weight + 1, 3);
  ASSERT_EQ(narrow.max_weight(), max_weight);
  Rng order_rng(7);
  const std::vector<Vertex> order = betweenness_order(narrow, 32, order_rng);
  expect_arena_contract(narrow, order, 8, true, "just below the bound");
  expect_arena_contract(wide, order, 16, true, "at the bound");

  // A 5-vertex path of weight (2^32 - 2) / 4 per edge: its distances reach
  // 2^32 - 4, so cover-test sums pass 2^32 and must widen before the add
  // (from root v2, vertex v3 has hub v0 at 3W and the root is at 2W from
  // v0; a 32-bit sum would wrap below W and prune v3).
  GraphBuilder b(5);
  for (Vertex v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1, (0xFFFFFFFFU - 1) / 4);
  const Graph path = b.build();
  expect_arena_contract(path, {0, 2, 4, 1, 3}, 8, true, "path with sums past 2^32");
}

TEST(ParallelDeterminism, PllArenaSpansPagesAndFourShards) {
  // 4,096 vertices at 4 threads: four vertex-range shards of 1,024, each
  // holding several pages of labels.
  Rng rng(43);
  const Graph g = gen::road_like(64, 64, 0.2, 10, rng);
  Rng order_rng(7);
  const std::vector<Vertex> order = betweenness_order(g, 64, order_rng);
  expect_arena_contract(g, order, 8, false, "road 64x64");
#if HUBLAB_METRICS_ENABLED
  const BuildRecord four = record_build(g, order, PllConfig{64, 4});
  EXPECT_GE(four.gauge("pll.arena_pages"), 4 * 2) << "fewer than two pages per shard";
#endif
}

}  // namespace
}  // namespace hublab
