#include "hub/flat_labeling.hpp"

#include <algorithm>
#include <numeric>

#include "util/metrics.hpp"

namespace hublab {

namespace {

/// Check the adopted layout: n + 1 offsets closing the hub array, every
/// label sorted, deduplicated and terminated by a kInvalidVertex
/// sentinel whose distance slot holds `inf`, which no real distance
/// reaches.
template <typename D>
void check_layout(std::size_t n, const std::vector<std::size_t>& offsets,
                  const std::vector<Vertex>& hubs, const std::vector<D>& dists, D inf) {
  HUBLAB_ASSERT_MSG(offsets.size() == n + 1, "offsets must have n + 1 entries");
  HUBLAB_ASSERT_MSG(hubs.size() == dists.size(), "hub/dist arrays must be parallel");
  HUBLAB_ASSERT_MSG(offsets.back() == hubs.size(), "final offset must close the hub array");
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t first = offsets[v];
    const std::size_t last = offsets[v + 1] - 1;  // sentinel slot
    HUBLAB_ASSERT_MSG(hubs[last] == kInvalidVertex && dists[last] == inf,
                      "every label must be sentinel-terminated");
    for (std::size_t i = first; i < last; ++i) {
      HUBLAB_ASSERT_MSG(i == first || hubs[i - 1] < hubs[i],
                        "labels must be sorted and deduplicated");
      HUBLAB_ASSERT_MSG(dists[i] < inf, "real distances must stay below the sentinel's");
    }
  }
}

/// Append every label of `labels` to the flat arrays, each closed by a
/// kInvalidVertex sentinel whose distance slot holds `inf`.
template <typename D>
void append_labels(const HubLabeling& labels, std::vector<std::size_t>& offsets,
                   std::vector<Vertex>& hubs, std::vector<D>& dists, D inf) {
  const std::size_t n = labels.num_vertices();
  const std::size_t slots = labels.total_hubs() + n;  // one sentinel per label
  offsets.reserve(n + 1);
  hubs.reserve(slots);
  dists.reserve(slots);
  for (Vertex v = 0; v < n; ++v) {
    const std::size_t first = hubs.size();
    offsets.push_back(first);
    for (const HubEntry& e : labels.label(v)) {
      HUBLAB_ASSERT_MSG(e.hub != kInvalidVertex, "kInvalidVertex is reserved as the sentinel");
      HUBLAB_ASSERT_MSG(hubs.size() == first || hubs.back() < e.hub,
                        "FlatHubLabeling requires a finalized (sorted, deduplicated) labeling");
      hubs.push_back(e.hub);
      dists.push_back(static_cast<D>(e.dist));
    }
    hubs.push_back(kInvalidVertex);
    dists.push_back(inf);
  }
  offsets.push_back(hubs.size());
}

}  // namespace

FlatHubLabeling::FlatHubLabeling(const HubLabeling& labels)
    : num_vertices_(labels.num_vertices()) {
  bool narrow = true;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    for (const HubEntry& e : labels.label(v)) narrow = narrow && e.dist < kInfDist32;
  }
  if (narrow) {
    append_labels(labels, offsets_, hubs_, dists_, kInfDist32);
  } else {
    append_labels(labels, offsets_, hubs_, wide_dists_, kInfDist);
  }
}

FlatHubLabeling::FlatHubLabeling(std::size_t num_vertices, std::vector<std::size_t> offsets,
                                 std::vector<Vertex> hubs, std::vector<Dist32> dists)
    : num_vertices_(num_vertices),
      offsets_(std::move(offsets)),
      hubs_(std::move(hubs)),
      dists_(std::move(dists)) {
  check_layout(num_vertices_, offsets_, hubs_, dists_, kInfDist32);
}

FlatHubLabeling::FlatHubLabeling(std::size_t num_vertices, std::vector<std::size_t> offsets,
                                 std::vector<Vertex> hubs, std::vector<Dist> dists)
    : num_vertices_(num_vertices),
      offsets_(std::move(offsets)),
      hubs_(std::move(hubs)),
      wide_dists_(std::move(dists)) {
  check_layout(num_vertices_, offsets_, hubs_, wide_dists_, kInfDist);
  // Sentinel slots hold kInfDist, which check_layout keeps out of the
  // real slots.
  HUBLAB_ASSERT_MSG(std::any_of(wide_dists_.begin(), wide_dists_.end(),
                                [](Dist d) { return d >= kInfDist32 && d != kInfDist; }),
                    "a u64 column needs a distance of at least kInfDist32");
}

HubQueryResult FlatHubLabeling::query_wide(Vertex u, Vertex v) const {
  return simd::sentinel_merge(hubs_.data() + offsets_[u], wide_dists_.data() + offsets_[u],
                              hubs_.data() + offsets_[v], wide_dists_.data() + offsets_[v]);
}

HubQueryResult FlatHubLabeling::query_with_stats(Vertex u, Vertex v,
                                                 metrics::QueryStats& stats) const {
  HUBLAB_ASSERT_RANGE(u, num_vertices_);
  HUBLAB_ASSERT_RANGE(v, num_vertices_);
  stats.labels(label_size(u), label_size(v));
  const Vertex* ha = hubs_.data() + offsets_[u];
  const Vertex* hb = hubs_.data() + offsets_[v];
  const HubQueryResult best =
      wide() ? simd::sentinel_merge(ha, wide_dists_.data() + offsets_[u], hb,
                                    wide_dists_.data() + offsets_[v], {}, stats)
             : simd::sentinel_merge(ha, dists_.data() + offsets_[u], hb,
                                    dists_.data() + offsets_[v], {}, stats);
  stats.meeting(best.meeting_hub);
  return best;
}

void FlatHubLabeling::query_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                                  std::span<HubQueryResult> out) const {
  query_batch_tier(pairs, out, simd::active_tier());
}

namespace {

/// The stamp-table path runs only on blocks of at least kStampMinPairs
/// pairs (below that, the per-call O(num_vertices) table set-up does not
/// amortize) over graphs whose two tables, a u32 stamp and a u32 distance
/// per vertex, fit in a 32 KiB L1 data cache together (n <= 4096).  Served
/// pairs almost never share a source, so the tables buy nothing back from
/// reuse: only L1-resident scatters and gathers beat the merge kernel,
/// and larger tables miss cache on every probe.  Both paths are
/// byte-identical, so the choice is invisible in the answers.
constexpr std::size_t kStampMinPairs = 32;
constexpr std::size_t kStampMaxVertices =
    (std::size_t{32} << 10) / (sizeof(std::uint32_t) + sizeof(Dist32));

/// Prefetch every cache line of one label's hub and distance columns,
/// sentinel included (`entries` = label size + 1).
template <typename D>
void prefetch_label(const Vertex* hubs, const D* dists, std::size_t entries) {
  constexpr std::size_t kLine = 64;
  for (std::size_t i = 0; i < entries; i += kLine / sizeof(Vertex)) __builtin_prefetch(hubs + i);
  __builtin_prefetch(hubs + entries - 1);
  for (std::size_t i = 0; i < entries; i += kLine / sizeof(D)) __builtin_prefetch(dists + i);
  __builtin_prefetch(dists + entries - 1);
}

/// Merge path: one sorted-hub intersection per pair, in `order`.  Labels
/// that miss cache stall the merge on every line, so while a pair merges,
/// the next pair's four columns are prefetched.  `kernel` has the
/// simd::KernelFn signature over the `D` column.  Returns the number of
/// source groups.
template <typename D, typename Kernel>
std::uint64_t merge_pairs(std::span<const std::pair<Vertex, Vertex>> pairs,
                          const std::vector<std::uint32_t>& order, std::span<HubQueryResult> out,
                          std::size_t n, const std::size_t* offsets, const Vertex* hubs,
                          const D* dists, Kernel kernel) {
  const auto size = [offsets](Vertex v) { return offsets[v + 1] - offsets[v] - 1; };
  std::uint64_t groups = 0;
  Vertex prev_source = kInvalidVertex;  // never a valid source
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k + 1 < order.size()) {
      const auto [nu, nv] = pairs[order[k + 1]];
      HUBLAB_ASSERT_RANGE(nu, n);
      HUBLAB_ASSERT_RANGE(nv, n);
      prefetch_label(hubs + offsets[nu], dists + offsets[nu], size(nu) + 1);
      prefetch_label(hubs + offsets[nv], dists + offsets[nv], size(nv) + 1);
    }
    const std::uint32_t idx = order[k];
    const auto [u, v] = pairs[idx];
    HUBLAB_ASSERT_RANGE(u, n);
    HUBLAB_ASSERT_RANGE(v, n);
    if (u != prev_source) {
      ++groups;
      prev_source = u;
    }
    out[idx] = kernel(hubs + offsets[u], dists + offsets[u], size(u), hubs + offsets[v],
                      dists + offsets[v], size(v));
  }
  return groups;
}

}  // namespace

void FlatHubLabeling::query_batch_tier(std::span<const std::pair<Vertex, Vertex>> pairs,
                                       std::span<HubQueryResult> out, simd::Tier tier) const {
  HUBLAB_ASSERT_MSG(pairs.size() == out.size(), "query_batch: pairs and out must be parallel");
  // Group the block by source vertex: a deterministic stable index sort,
  // so consecutive queries share the same source label (the cache-blocking
  // win) while results land at their original positions.
  std::vector<std::uint32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return pairs[x].first < pairs[y].first;
  });
  std::uint64_t groups = 0;
  if (wide()) {
    // The u64 column: only the scalar sentinel merge serves it.
    groups = merge_pairs(pairs, order, out, num_vertices_, offsets_.data(), hubs_.data(),
                         wide_dists_.data(),
                         [](const Vertex* ha, const Dist* da, std::size_t, const Vertex* hb,
                            const Dist* db, std::size_t) {
                           return simd::sentinel_merge(ha, da, hb, db);
                         });
  } else if (pairs.size() >= kStampMinPairs && num_vertices_ <= kStampMaxVertices) {
    // Stamp-table path: scatter each source group's label into dense
    // per-hub tables once (`stamp[h] == group` marks membership, sdist[h]
    // the distance), then answer every query of the group with one linear
    // probe scan of its target label — no merge, no data-dependent
    // branches, and the tables stay L1-resident across the block.
    const simd::ProbeFn probe = simd::probe_for(tier);  // one dispatch per block
    std::vector<std::uint32_t> stamp(num_vertices_, 0);
    std::vector<Dist32> sdist(num_vertices_);
    Vertex prev_source = kInvalidVertex;  // never a valid source
    for (const std::uint32_t idx : order) {
      const auto [u, v] = pairs[idx];
      HUBLAB_ASSERT_RANGE(u, num_vertices_);
      HUBLAB_ASSERT_RANGE(v, num_vertices_);
      if (u != prev_source) {
        ++groups;
        HUBLAB_ASSERT_MSG(groups < kInvalidVertex, "query_batch: group stamp overflow");
        const Vertex* sh = hubs_.data() + offsets_[u];
        const Dist32* sd = dists_.data() + offsets_[u];
        const std::size_t sn = label_size(u);
        for (std::size_t i = 0; i < sn; ++i) {
          stamp[sh[i]] = static_cast<std::uint32_t>(groups);
          sdist[sh[i]] = sd[i];
        }
        prev_source = u;
      }
      out[idx] = probe(hubs_.data() + offsets_[v], dists_.data() + offsets_[v], label_size(v),
                       stamp.data(), sdist.data(), static_cast<std::uint32_t>(groups));
    }
  } else {
    groups = merge_pairs(pairs, order, out, num_vertices_, offsets_.data(), hubs_.data(),
                         dists_.data(), simd::kernel_for(tier));
  }
  // Resolved once: each registry() lookup takes the registry lock, and
  // every serving worker runs this per block.  The handles stay valid for
  // the registry's lifetime.
  static metrics::Counter& calls = metrics::registry().counter("query.batch.calls");
  static metrics::Counter& batched_pairs = metrics::registry().counter("query.batch.pairs");
  static metrics::Counter& source_groups =
      metrics::registry().counter("query.batch.source_groups");
  calls.add(1);
  batched_pairs.add(pairs.size());
  source_groups.add(groups);
}

}  // namespace hublab
