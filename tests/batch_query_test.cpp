#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "hub/flat_labeling.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "hub/simd_kernel.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/oracle.hpp"
#include "oracle/server.hpp"
#include "oracle/workload.hpp"
#include "rs/rs_graph.hpp"
#include "tests/heavy_weight_graphs.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

/// Block sizes straddling the stamp-table threshold (32 pairs): 1 and 7
/// always take the per-pair merge-kernel path; 64 and 4096 take the
/// stamp-table probe path on graphs with n <= 4096 (tables within 32 KiB)
/// and the merge path on larger graphs.
constexpr std::size_t kBlockSizes[] = {1, 7, 64, 4096};

/// The batched-query contract: for every host-reachable ISA tier and every
/// block size, `query_batch_tier` answers byte-identically — distance AND
/// meeting hub — to the per-query reference `query_with_hub`.
void expect_batch_identity(const Graph& g) {
  const HubLabeling labels = pruned_landmark_labeling(g);
  const FlatHubLabeling flat(labels);
  for (const std::size_t block : kBlockSizes) {
    const std::vector<std::pair<Vertex, Vertex>> pairs =
        serve::WorkloadGenerator(g, serve::WorkloadKind::kUniform, 7 + block).block(block);
    std::vector<HubQueryResult> out(block);
    for (const simd::Tier tier : simd::supported_tiers()) {
      flat.query_batch_tier(pairs, out, tier);
      for (std::size_t i = 0; i < block; ++i) {
        const HubQueryResult ref = flat.query_with_hub(pairs[i].first, pairs[i].second);
        ASSERT_EQ(out[i].dist, ref.dist)
            << "tier=" << simd::tier_name(tier) << " block=" << block << " pair#" << i << " ("
            << pairs[i].first << "," << pairs[i].second << ")";
        ASSERT_EQ(out[i].meeting_hub, ref.meeting_hub)
            << "tier=" << simd::tier_name(tier) << " block=" << block << " pair#" << i << " ("
            << pairs[i].first << "," << pairs[i].second << ")";
      }
    }
    // The public entry point resolves the active tier (honouring
    // HUBLAB_FORCE_SCALAR) and must agree as well.
    flat.query_batch(pairs, out);
    for (std::size_t i = 0; i < block; ++i) {
      const HubQueryResult ref = flat.query_with_hub(pairs[i].first, pairs[i].second);
      ASSERT_EQ(out[i].dist, ref.dist) << "active tier, block=" << block << " pair#" << i;
      ASSERT_EQ(out[i].meeting_hub, ref.meeting_hub)
          << "active tier, block=" << block << " pair#" << i;
    }
  }
}

TEST(BatchQuery, ByteIdenticalOnDegree3Gadget) {
  // The Figure 1 hard instance: the unweighted max-degree-3 expansion of
  // the layered gadget.
  const lb::LayeredGadget h(lb::GadgetParams{2, 1});
  expect_batch_identity(lb::Degree3Gadget(h).graph());
}

TEST(BatchQuery, ByteIdenticalOnBehrendRsGraph) {
  expect_batch_identity(rs::behrend_rs_graph(40).graph);
}

TEST(BatchQuery, ByteIdenticalOnDisconnectedGraph) {
  // Cross-component pairs exercise the no-common-hub outcome: kInfDist
  // with the kInvalidVertex meeting hub through every tier and both the
  // merge and stamp paths.
  GraphBuilder b(24);
  for (Vertex v = 0; v + 1 < 12; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 12; v + 1 < 24; ++v) b.add_edge(v, v + 1);
  expect_batch_identity(b.build());
}

TEST(BatchQuery, ByteIdenticalOnWeightedRoadGraph) {
  // Weighted distances: the fold is over 64-bit sums, and ties between
  // different weighted paths exercise the lexicographic (dist, hub) rule.
  Rng rng(31);
  expect_batch_identity(gen::road_like(6, 6, 0.2, 9, rng));
}

TEST(BatchQuery, ByteIdenticalOnMergePathAboveStampBound) {
  // n = 4900 > 4096: the stamp tables (a u32 stamp and a u32 distance per
  // vertex) would not fit in 32 KiB of L1, so blocks of 64 and 4096 pairs
  // also take the merge kernel (with the next-pair prefetch), over
  // weighted labels longer than one 16-hub SIMD block.
  Rng rng(37);
  const Graph g = gen::road_like(70, 70, 0.2, 9, rng);
  ASSERT_GT(g.num_vertices(),
            (std::size_t{32} << 10) / (sizeof(std::uint32_t) + sizeof(Dist32)));
  expect_batch_identity(g);
}

/// Every query entry point on labels at the 32-bit boundary of the
/// distance column: query, query_with_hub (meeting hub included),
/// query_with_stats and query_batch_tier at every reachable tier and block
/// sizes 1, 7 and 64 (the stamp probe), over every ordered pair, each
/// against HubLabeling::query_with_hub and Dijkstra.  Returns the number
/// of pairs whose distance exceeds 2^32 and whose labels both hold at
/// least 16 entries (a full AVX-512 block).
std::size_t expect_boundary_answers(const Graph& g, std::size_t dist_bytes) {
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural);
  const HubLabeling labels = pruned_landmark_labeling(g, order);
  const FlatHubLabeling flat = pruned_landmark_labeling_flat(g, order);
  EXPECT_EQ(flat.dist_bytes(), dist_bytes);
  const DistanceMatrix truth = DistanceMatrix::compute(g);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  std::vector<HubQueryResult> refs;
  std::size_t long_wide_pairs = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const HubQueryResult ref = labels.query_with_hub(u, v);
      EXPECT_EQ(ref.dist, truth.at(u, v)) << "(" << u << "," << v << ")";
      const HubQueryResult got = flat.query_with_hub(u, v);
      EXPECT_EQ(got.dist, ref.dist) << "(" << u << "," << v << ")";
      EXPECT_EQ(got.meeting_hub, ref.meeting_hub) << "(" << u << "," << v << ")";
      EXPECT_EQ(flat.query(u, v), ref.dist) << "(" << u << "," << v << ")";
      metrics::QueryStats stats;
      const HubQueryResult explained = flat.query_with_stats(u, v, stats);
      EXPECT_EQ(explained.dist, ref.dist) << "(" << u << "," << v << ")";
      EXPECT_EQ(explained.meeting_hub, ref.meeting_hub) << "(" << u << "," << v << ")";
      if (ref.dist > (Dist{1} << 32) && flat.label_size(u) >= 16 && flat.label_size(v) >= 16) {
        ++long_wide_pairs;
      }
      pairs.emplace_back(u, v);
      refs.push_back(ref);
    }
  }
  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    std::vector<HubQueryResult> out(block);
    for (const simd::Tier tier : simd::supported_tiers()) {
      for (std::size_t first = 0; first + block <= pairs.size(); first += block) {
        flat.query_batch_tier({pairs.data() + first, block}, out, tier);
        for (std::size_t i = 0; i < block; ++i) {
          const auto [u, v] = pairs[first + i];
          EXPECT_EQ(out[i].dist, refs[first + i].dist)
              << "tier=" << simd::tier_name(tier) << " block=" << block << " (" << u << "," << v
              << ")";
          EXPECT_EQ(out[i].meeting_hub, refs[first + i].meeting_hub)
              << "tier=" << simd::tier_name(tier) << " block=" << block << " (" << u << "," << v
              << ")";
        }
      }
    }
  }
  return long_wide_pairs;
}

TEST(BatchQuery, WidensSumsAboveTwoToTheThirtyTwo) {
  // Label distances below 2^32 - 1 (the u32 column), but cross-arm sums
  // through a center above 2^32: a 32-bit add would wrap.  Some of those
  // pairs have labels of 16+ entries, so the SIMD block loops add them.
  const Graph g = heavy::wide_sums();
  EXPECT_LT(heavy::max_label_dist(pruned_landmark_labeling(
                g, make_vertex_order(g, VertexOrder::kNatural))),
            Dist{kInfDist32});
  EXPECT_GT(expect_boundary_answers(g, sizeof(Dist32)), 0u);
}

TEST(BatchQuery, LargestNarrowDistanceStaysOnU32Column) {
  const Graph g = heavy::narrow_limit();
  EXPECT_EQ(heavy::max_label_dist(pruned_landmark_labeling(
                g, make_vertex_order(g, VertexOrder::kNatural))),
            Dist{0xFFFFFFFEU});
  EXPECT_GT(expect_boundary_answers(g, sizeof(Dist32)), 0u);
}

TEST(BatchQuery, DistancesPastU32TakeU64Column) {
  const Graph g = heavy::needs_u64();
  EXPECT_EQ(heavy::max_label_dist(pruned_landmark_labeling(
                g, make_vertex_order(g, VertexOrder::kNatural))),
            Dist{0xFFFFFFFFU});
  EXPECT_GT(expect_boundary_answers(g, sizeof(Dist)), 0u);
}

/// Sentinel-terminated label columns, as FlatHubLabeling lays them out.
struct Columns {
  std::vector<Vertex> hubs;
  std::vector<Dist32> dists;

  Columns(std::vector<Vertex> h, std::vector<Dist32> d) : hubs(std::move(h)), dists(std::move(d)) {
    hubs.push_back(kInvalidVertex);
    dists.push_back(kInfDist32);
  }
  [[nodiscard]] std::size_t size() const { return hubs.size() - 1; }
};

/// The lexicographic (dist, hub) minimum over the common hubs, by brute
/// force: the smallest hub among those tied at the minimal distance sum.
HubQueryResult brute_force_min(const Columns& a, const Columns& b) {
  HubQueryResult best;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (a.hubs[i] != b.hubs[j]) continue;
      const Dist d = Dist{a.dists[i]} + Dist{b.dists[j]};
      if (d < best.dist || (d == best.dist && a.hubs[i] < best.meeting_hub)) {
        best.dist = d;
        best.meeting_hub = a.hubs[i];
      }
    }
  }
  return best;
}

/// Every tier's simd::intersect agrees with the expected answer, in both
/// argument orders.
void expect_kernel_answer(const Columns& a, const Columns& b, const HubQueryResult& expected) {
  const HubQueryResult brute = brute_force_min(a, b);
  ASSERT_EQ(brute.dist, expected.dist);
  ASSERT_EQ(brute.meeting_hub, expected.meeting_hub);
  for (const simd::Tier tier : simd::supported_tiers()) {
    const HubQueryResult ab = simd::intersect(tier, a.hubs.data(), a.dists.data(), a.size(),
                                              b.hubs.data(), b.dists.data(), b.size());
    const HubQueryResult ba = simd::intersect(tier, b.hubs.data(), b.dists.data(), b.size(),
                                              a.hubs.data(), a.dists.data(), a.size());
    EXPECT_EQ(ab.dist, expected.dist) << "tier=" << simd::tier_name(tier);
    EXPECT_EQ(ab.meeting_hub, expected.meeting_hub) << "tier=" << simd::tier_name(tier);
    EXPECT_EQ(ba.dist, expected.dist) << "tier=" << simd::tier_name(tier) << " (swapped)";
    EXPECT_EQ(ba.meeting_hub, expected.meeting_hub) << "tier=" << simd::tier_name(tier)
                                                    << " (swapped)";
  }
}

/// Hubs 0, step, 2 * step, ... (count of them), all at distance `base`.
Columns strided(std::size_t count, Vertex step, Dist32 base) {
  std::vector<Vertex> hubs(count);
  for (std::size_t i = 0; i < count; ++i) hubs[i] = static_cast<Vertex>(i) * step;
  return {std::move(hubs), std::vector<Dist32>(count, base)};
}

TEST(BatchQuery, KernelFoldsEverySharedHubToSmallestTiedHub) {
  // 3 full 16-hub blocks plus a 5-hub tail, every hub shared, so every
  // lane of every block pair matches (at rotation 0).
  constexpr std::size_t kSize = 3 * 16 + 5;
  {
    // Equal minimal sums at lanes 4 and 12 of block 1 (one in each 8-lane
    // half) and at lane 3 of block 2: the smallest tied hub is 20.
    Columns a = strided(kSize, 1, 10);
    Columns b = strided(kSize, 1, 10);
    a.dists[20] = 1;
    b.dists[20] = 4;
    a.dists[28] = 3;
    b.dists[28] = 2;
    a.dists[35] = 0;
    b.dists[35] = 5;
    expect_kernel_answer(a, b, HubQueryResult{5, 20});
  }
  {
    // Ties only in the upper half of block 0 (lanes 9 and 14), plus a tie
    // at the first tail entry: hub 9.
    Columns a = strided(kSize, 1, 10);
    Columns b = strided(kSize, 1, 10);
    a.dists[9] = 2;
    b.dists[9] = 2;
    a.dists[14] = 4;
    b.dists[14] = 0;
    a.dists[48] = 1;
    b.dists[48] = 3;
    expect_kernel_answer(a, b, HubQueryResult{4, 9});
  }
  {
    // Hub 50 in the tail has a strictly smaller sum than the ties in
    // block 0 (hubs 2 and 13) and than hub 47 in block 2.
    Columns a = strided(kSize, 1, 10);
    Columns b = strided(kSize, 1, 10);
    a.dists[2] = 3;
    b.dists[2] = 3;
    a.dists[13] = 3;
    b.dists[13] = 3;
    a.dists[47] = 1;
    b.dists[47] = 4;
    a.dists[50] = 2;
    b.dists[50] = 2;
    expect_kernel_answer(a, b, HubQueryResult{4, 50});
  }
  // Every sum tied: the very first hub.
  expect_kernel_answer(strided(kSize, 1, 7), strided(kSize, 1, 7), HubQueryResult{14, 0});
}

TEST(BatchQuery, KernelFoldsRotatedMatchesToSmallestTiedHub) {
  // Multiples of 2 against multiples of 3: the common hubs (multiples of
  // 6) match at every rotation offset, in blocks of both columns.
  Columns a = strided(4 * 16 + 3, 3, 5);
  Columns b = strided(6 * 16 + 1, 2, 5);
  // Ties across blocks: hubs 18 (A block 0 / B block 0), 72 (A block 1 /
  // B block 2) and 192 (the last common hub, in both tails) share the
  // minimal sum.
  a.dists[18 / 3] = 1;
  b.dists[18 / 2] = 1;
  a.dists[72 / 3] = 0;
  b.dists[72 / 2] = 2;
  a.dists[192 / 3] = 2;
  b.dists[192 / 2] = 0;
  expect_kernel_answer(a, b, HubQueryResult{2, 18});
  // Without the first tie, the next tied hub in a later block wins.
  a.dists[18 / 3] = 5;
  expect_kernel_answer(a, b, HubQueryResult{2, 72});
}

TEST(BatchQuery, KernelMatchesBruteForceOnRandomColumns) {
  // Random sorted hub sets over a small universe (dense overlap) with
  // distances in [base, base + 3] (dense ties), lengths straddling the 8-
  // and 16-lane block sizes.  The second base puts every distance just
  // below kInfDist32, so every sum exceeds 2^32 and a kernel that adds in
  // 32 bits wraps.
  Rng rng(41);
  for (const Dist32 base : {Dist32{0}, Dist32{kInfDist32 - 4}}) {
    for (int trial = 0; trial < 400; ++trial) {
      const auto make = [&rng, base] {
        std::vector<Vertex> hubs;
        std::vector<Dist32> dists;
        const std::uint64_t keep = 1 + rng.next_below(4);  // keep each hub with p = keep / 4
        for (Vertex h = 0; h < 160; ++h) {
          if (rng.next_below(4) < keep) {
            hubs.push_back(h);
            dists.push_back(base + static_cast<Dist32>(rng.next_below(4)));
          }
        }
        return Columns(std::move(hubs), std::move(dists));
      };
      const Columns a = make();
      const Columns b = make();
      expect_kernel_answer(a, b, brute_force_min(a, b));
    }
  }
}

TEST(BatchQuery, OracleBatchEntryPointsAgree) {
  // distance_batch through the oracle interface: the flat oracle's SIMD
  // batch kernel, the vector oracle's per-pair merges, and the base-class
  // default (distance() loop, no hubs) must all report the same distances.
  Rng rng(33);
  const Graph g = gen::connected_gnm(80, 160, rng);
  const HubLabeling labels = pruned_landmark_labeling(g);
  const HubLabelOracle vec(g, labels);
  const FlatHubLabelOracle flat(labels);
  const BidirectionalOracle bidij(g);

  const std::vector<std::pair<Vertex, Vertex>> pairs =
      serve::WorkloadGenerator(g, serve::WorkloadKind::kZipf, 9).block(128);
  std::vector<HubQueryResult> from_vec(pairs.size());
  std::vector<HubQueryResult> from_flat(pairs.size());
  std::vector<HubQueryResult> from_bidij(pairs.size());
  vec.distance_batch(pairs, from_vec);
  flat.distance_batch(pairs, from_flat);
  bidij.distance_batch(pairs, from_bidij);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(from_flat[i].dist, from_vec[i].dist) << "pair#" << i;
    ASSERT_EQ(from_flat[i].meeting_hub, from_vec[i].meeting_hub) << "pair#" << i;
    ASSERT_EQ(from_flat[i].dist, from_bidij[i].dist) << "pair#" << i;
  }
}

#if HUBLAB_METRICS_ENABLED

TEST(BatchQuery, MetricsCountBlocksPairsAndGroups) {
  Rng rng(35);
  const Graph g = gen::connected_gnm(50, 100, rng);
  const FlatHubLabeling flat(pruned_landmark_labeling(g));
  const std::vector<std::pair<Vertex, Vertex>> pairs =
      serve::WorkloadGenerator(g, serve::WorkloadKind::kUniform, 3).block(64);
  std::vector<HubQueryResult> out(pairs.size());
  metrics::registry().reset();
  flat.query_batch(pairs, out);
  std::uint64_t calls = 0;
  std::uint64_t batched = 0;
  std::uint64_t groups = 0;
  for (const auto& c : metrics::registry().counters()) {
    if (c.name == "query.batch.calls") calls = c.value;
    if (c.name == "query.batch.pairs") batched = c.value;
    if (c.name == "query.batch.source_groups") groups = c.value;
  }
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(batched, 64u);
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, 64u);
}

#endif  // HUBLAB_METRICS_ENABLED

TEST(BatchQuery, ServeBatchedDrainIsDeterministic) {
  // The server with batch 4: the batched drain must reproduce the
  // per-query loop's checksum/reachability, and stay worker-count
  // invariant under kBlock (the tsan job runs this suite at 1 and 4
  // workers).
  const Graph g = lb::LayeredGadget(lb::GadgetParams{1, 1}).graph();
  const auto oracle = serve::make_oracle(g, serve::OracleKind::kPllFlat, PllConfig{});
  serve::ServerConfig base;
  base.workload = serve::WorkloadKind::kUniform;
  base.num_queries = 300;
  base.seed = 5;
  base.workers = 1;
  base.qps = 1e9;
  base.admission = serve::AdmissionPolicy::kBlock;
  base.batch = 1;
  base.register_metrics = false;
  const serve::ServerResult unbatched = serve::run_server_on(g, *oracle, base);

  serve::ServerConfig batched = base;
  batched.batch = 4;
  const serve::ServerResult b1 = serve::run_server_on(g, *oracle, batched);

  serve::ServerConfig batched4 = batched;
  batched4.workers = 4;
  const serve::ServerResult b4 = serve::run_server_on(g, *oracle, batched4);

  EXPECT_EQ(b1.checksum, unbatched.checksum);
  EXPECT_EQ(b1.reachable, unbatched.reachable);
  EXPECT_EQ(b1.completed, unbatched.completed);
  EXPECT_EQ(b4.checksum, b1.checksum);
  EXPECT_EQ(b4.reachable, b1.reachable);
  EXPECT_EQ(b4.completed, b1.completed);
  EXPECT_EQ(b4.latency_ns.count(), b1.latency_ns.count());
}

TEST(BatchQuery, SupportedTiersAlwaysIncludeScalar) {
  const std::vector<simd::Tier> tiers = simd::supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::kScalar);
  // The active tier must be one the host can actually run.
  bool active_supported = false;
  for (const simd::Tier tier : tiers) {
    if (tier == simd::active_tier()) active_supported = true;
  }
  EXPECT_TRUE(active_supported);
}

}  // namespace
}  // namespace hublab
