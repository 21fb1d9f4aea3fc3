#include "hub/flat_labeling.hpp"

#include <algorithm>
#include <numeric>

#include "util/metrics.hpp"

namespace hublab {

FlatHubLabeling::FlatHubLabeling(const HubLabeling& labels)
    : num_vertices_(labels.num_vertices()) {
  const std::size_t slots = labels.total_hubs() + num_vertices_;  // one sentinel per label
  offsets_.reserve(num_vertices_ + 1);
  hubs_.reserve(slots);
  dists_.reserve(slots);
  for (Vertex v = 0; v < num_vertices_; ++v) {
    const std::size_t first = hubs_.size();
    offsets_.push_back(first);
    for (const HubEntry& e : labels.label(v)) {
      HUBLAB_ASSERT_MSG(e.hub != kInvalidVertex, "kInvalidVertex is reserved as the sentinel");
      HUBLAB_ASSERT_MSG(hubs_.size() == first || hubs_.back() < e.hub,
                        "FlatHubLabeling requires a finalized (sorted, deduplicated) labeling");
      hubs_.push_back(e.hub);
      dists_.push_back(e.dist);
    }
    hubs_.push_back(kInvalidVertex);
    dists_.push_back(kInfDist);
  }
  offsets_.push_back(hubs_.size());
}

FlatHubLabeling::FlatHubLabeling(std::size_t num_vertices, std::vector<std::size_t> offsets,
                                 std::vector<Vertex> hubs, std::vector<Dist> dists)
    : num_vertices_(num_vertices),
      offsets_(std::move(offsets)),
      hubs_(std::move(hubs)),
      dists_(std::move(dists)) {
  HUBLAB_ASSERT_MSG(offsets_.size() == num_vertices_ + 1, "offsets must have n + 1 entries");
  HUBLAB_ASSERT_MSG(hubs_.size() == dists_.size(), "hub/dist arrays must be parallel");
  HUBLAB_ASSERT_MSG(offsets_.empty() || offsets_.back() == hubs_.size(),
                    "final offset must close the hub array");
  for (std::size_t v = 0; v < num_vertices_; ++v) {
    const std::size_t first = offsets_[v];
    const std::size_t last = offsets_[v + 1] - 1;  // sentinel slot
    HUBLAB_ASSERT_MSG(hubs_[last] == kInvalidVertex && dists_[last] == kInfDist,
                      "every label must be sentinel-terminated");
    for (std::size_t i = first + 1; i < last; ++i) {
      HUBLAB_ASSERT_MSG(hubs_[i - 1] < hubs_[i], "labels must be sorted and deduplicated");
    }
  }
}

void FlatHubLabeling::query_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                                  std::span<HubQueryResult> out) const {
  query_batch_tier(pairs, out, simd::active_tier());
}

namespace {

/// The stamp-table path runs only on blocks of at least kStampMinPairs
/// pairs (below that, the per-call O(num_vertices) table set-up does not
/// amortize) over graphs whose two tables, a u32 stamp and a Dist per
/// vertex, fit in a 32 KiB L1 data cache together (n <= 2730).  Served
/// pairs almost never share a source, so the tables buy nothing back from
/// reuse: only L1-resident scatters and gathers beat the merge kernel,
/// and larger tables miss cache on every probe.  Both paths are
/// byte-identical, so the choice is invisible in the answers.
constexpr std::size_t kStampMinPairs = 32;
constexpr std::size_t kStampMaxVertices =
    (std::size_t{32} << 10) / (sizeof(std::uint32_t) + sizeof(Dist));

/// Prefetch every cache line of one label's hub and distance columns,
/// sentinel included (`entries` = label size + 1).
void prefetch_label(const Vertex* hubs, const Dist* dists, std::size_t entries) {
  constexpr std::size_t kLine = 64;
  for (std::size_t i = 0; i < entries; i += kLine / sizeof(Vertex)) __builtin_prefetch(hubs + i);
  __builtin_prefetch(hubs + entries - 1);
  for (std::size_t i = 0; i < entries; i += kLine / sizeof(Dist)) __builtin_prefetch(dists + i);
  __builtin_prefetch(dists + entries - 1);
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
  Vertex prev_source = kInvalidVertex;  // never a valid source
  if (pairs.size() >= kStampMinPairs && num_vertices_ <= kStampMaxVertices) {
    // Stamp-table path: scatter each source group's label into dense
    // per-hub tables once (`stamp[h] == group` marks membership, sdist[h]
    // the distance), then answer every query of the group with one linear
    // probe scan of its target label — no merge, no data-dependent
    // branches, and the tables stay L1-resident across the block.
    const simd::ProbeFn probe = simd::probe_for(tier);  // one dispatch per block
    std::vector<std::uint32_t> stamp(num_vertices_, 0);
    std::vector<Dist> sdist(num_vertices_);
    for (const std::uint32_t idx : order) {
      const auto [u, v] = pairs[idx];
      HUBLAB_ASSERT_RANGE(u, num_vertices_);
      HUBLAB_ASSERT_RANGE(v, num_vertices_);
      if (u != prev_source) {
        ++groups;
        HUBLAB_ASSERT_MSG(groups < kInvalidVertex, "query_batch: group stamp overflow");
        const Vertex* sh = hubs_.data() + offsets_[u];
        const Dist* sd = dists_.data() + offsets_[u];
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
    // Merge path: one sorted-hub intersection per pair.  Labels that miss
    // cache stall the merge on every line, so while a pair merges, the
    // next pair's four columns are prefetched.
    const simd::KernelFn kernel = simd::kernel_for(tier);
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (k + 1 < order.size()) {
        const auto [nu, nv] = pairs[order[k + 1]];
        HUBLAB_ASSERT_RANGE(nu, num_vertices_);
        HUBLAB_ASSERT_RANGE(nv, num_vertices_);
        prefetch_label(hubs_.data() + offsets_[nu], dists_.data() + offsets_[nu],
                       label_size(nu) + 1);
        prefetch_label(hubs_.data() + offsets_[nv], dists_.data() + offsets_[nv],
                       label_size(nv) + 1);
      }
      const std::uint32_t idx = order[k];
      const auto [u, v] = pairs[idx];
      HUBLAB_ASSERT_RANGE(u, num_vertices_);
      HUBLAB_ASSERT_RANGE(v, num_vertices_);
      if (u != prev_source) {
        ++groups;
        prev_source = u;
      }
      out[idx] = kernel(hubs_.data() + offsets_[u], dists_.data() + offsets_[u], label_size(u),
                        hubs_.data() + offsets_[v], dists_.data() + offsets_[v], label_size(v));
    }
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
