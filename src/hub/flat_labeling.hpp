#pragma once

#include <span>
#include <utility>
#include <vector>

#include "hub/labeling.hpp"
#include "hub/simd_kernel.hpp"

/// \file flat_labeling.hpp
/// Structure-of-arrays hub labeling for the query fast path.
///
/// `HubLabeling` stores labels as vector<vector<HubEntry>>: one heap
/// allocation per vertex, a pointer chase per label on every query, and
/// 12-byte entries padded to 16.  The query merge is exactly where exact
/// distance oracles win or lose (the space/time tradeoff of the source
/// paper's Section 1.1), so `FlatHubLabeling` converts a finalized
/// labeling into three flat arrays:
///
///  - `offsets_[v]` — CSR-style start of v's label in the hub/dist arrays;
///  - `hubs_`      — all hub ids, each label sorted ascending and
///                   terminated by a `kInvalidVertex` sentinel;
///  - `dists_`     — u32 distances parallel to `hubs_` (sentinel slots
///                   hold `kInfDist32`), so an entry costs 8 bytes.
///
/// The distance column is chosen once, at construction: u32 whenever every
/// label distance is below kInfDist32 (every unweighted graph, and any
/// weighted one whose distances stay under 2^32 - 1), otherwise a u64
/// column (`wide_dists_`, 12-byte entries, sentinel kInfDist) that only
/// the scalar sentinel merge serves.  Every sum widens to Dist before the
/// add, so answers never depend on the width.
///
/// Splitting hubs from distances keeps the merge loop's comparisons on a
/// dense u32 stream, and the sentinel (== the maximum u32, sorting after
/// every real hub) lets the merge advance without bounds checks: the loop
/// only ever tests hub values, and terminates when both cursors reach
/// their sentinels.  Queries return bit-identical results to
/// `HubLabeling::query` on the labeling the structure was built from.
///
/// The structure is immutable; rebuild it after the source labeling
/// changes.

namespace hublab {

class FlatHubLabeling {
 public:
  FlatHubLabeling() = default;

  /// Convert a finalized labeling (sorted, deduplicated labels).
  explicit FlatHubLabeling(const HubLabeling& labels);

  /// Adopt pre-built flat arrays (the PLL builder's single-pass finalize).
  /// The arrays must already be in this class's layout: `offsets` has
  /// n + 1 entries counting sentinels, every label is sorted ascending by
  /// hub id and terminated by a kInvalidVertex sentinel whose distance
  /// slot holds kInfDist32 (narrow column) or kInfDist (u64 column).  The
  /// narrow column requires every real distance below kInfDist32, the u64
  /// column some distance of at least kInfDist32.
  FlatHubLabeling(std::size_t num_vertices, std::vector<std::size_t> offsets,
                  std::vector<Vertex> hubs, std::vector<Dist32> dists);
  FlatHubLabeling(std::size_t num_vertices, std::vector<std::size_t> offsets,
                  std::vector<Vertex> hubs, std::vector<Dist> dists);

  [[nodiscard]] std::size_t num_vertices() const { return num_vertices_; }

  /// Entries of S(v), excluding the sentinel.
  [[nodiscard]] std::size_t label_size(Vertex v) const {
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    return offsets_[v + 1] - offsets_[v] - 1;
  }

  /// Hub ids of S(v) in ascending order, excluding the sentinel.
  [[nodiscard]] std::span<const Vertex> hubs(Vertex v) const {
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    return {hubs_.data() + offsets_[v], label_size(v)};
  }

  /// Distance of the i-th entry of S(v) (parallel to hubs(v)).
  [[nodiscard]] Dist dist(Vertex v, std::size_t i) const {
    HUBLAB_ASSERT_RANGE(i, label_size(v));
    return wide() ? wide_dists_[offsets_[v] + i] : Dist{dists_[offsets_[v] + i]};
  }

  /// Bytes per stored distance: 4 for the narrow column, 8 for the u64
  /// column of labels whose distances reach kInfDist32.
  [[nodiscard]] std::size_t dist_bytes() const { return wide() ? sizeof(Dist) : sizeof(Dist32); }

  /// Sum of label sizes over all vertices (sentinels excluded).
  [[nodiscard]] std::size_t total_hubs() const {
    return hubs_.empty() ? 0 : hubs_.size() - num_vertices_;
  }

  /// Common-hub minimum over the flat arrays; kInfDist when the labels
  /// share no hub.  Same results as HubLabeling::query on the source
  /// labeling.
  [[nodiscard]] Dist query(Vertex u, Vertex v) const { return query_with_hub(u, v).dist; }

  /// As query(), also reporting the meeting hub.  The u32 column's merge
  /// is inlined here; the u64 column's is out of line.
  [[nodiscard]] HubQueryResult query_with_hub(Vertex u, Vertex v) const {
    HUBLAB_ASSERT_RANGE(u, num_vertices_);
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    if (wide()) return query_wide(u, v);
    return simd::sentinel_merge(hubs_.data() + offsets_[u], dists_.data() + offsets_[u],
                                hubs_.data() + offsets_[v], dists_.data() + offsets_[v]);
  }

  /// Attribution variant of query_with_hub() (`hublab explain`, slow-query
  /// capture): same sentinel-terminated merge, same result, plus the probe
  /// records label sizes, cursor advances and the meeting hub.
  [[nodiscard]] HubQueryResult query_with_stats(Vertex u, Vertex v,
                                                metrics::QueryStats& stats) const;

  /// Batched queries: answer `pairs[i]` into `out[i]` (same size spans).
  /// The block is grouped by source vertex (a deterministic stable sort of
  /// indices), so consecutive queries share a source label where the
  /// block repeats sources, and the kernels run on the tier reported by
  /// `simd::active_tier()`.  Blocks of at least 32 pairs on graphs whose
  /// per-vertex stamp tables fit in 32 KiB of L1 (n <= 4096) take the
  /// stamp-table probe (simd::ProbeFn); every other block takes the
  /// per-pair SIMD merge (simd::KernelFn), prefetching the next pair's
  /// label columns while the current pair merges.  Labels on the u64
  /// column take the scalar sentinel merge on every block.  Results are
  /// byte-identical to per-query `query_with_hub` for every tier, batch
  /// size and path: same distance, same meeting hub.  Registers the
  /// `query.batch.*` counters (docs/observability.md).
  void query_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                   std::span<HubQueryResult> out) const;

  /// As query_batch(), on an explicit dispatch tier (tests and the
  /// bench's tier sweep; unavailable tiers degrade to scalar).
  void query_batch_tier(std::span<const std::pair<Vertex, Vertex>> pairs,
                        std::span<HubQueryResult> out, simd::Tier tier) const;

  /// Actual heap footprint: array capacities times their element sizes,
  /// comparable with HubLabeling::memory_bytes().
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.capacity() * sizeof(std::size_t) + hubs_.capacity() * sizeof(Vertex) +
           dists_.capacity() * sizeof(Dist32) + wide_dists_.capacity() * sizeof(Dist);
  }

 private:
  [[nodiscard]] bool wide() const { return !wide_dists_.empty(); }

  /// query_with_hub() on the u64 column.
  [[nodiscard]] HubQueryResult query_wide(Vertex u, Vertex v) const;

  std::size_t num_vertices_ = 0;
  std::vector<std::size_t> offsets_;  ///< size n + 1, counting sentinels
  std::vector<Vertex> hubs_;          ///< per-label sorted, sentinel-terminated
  std::vector<Dist32> dists_;         ///< parallel to hubs_ (the narrow column)
  std::vector<Dist> wide_dists_;      ///< parallel to hubs_ when dists_ is empty (u64 column)
};

}  // namespace hublab
