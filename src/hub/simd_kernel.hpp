#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hub/labeling.hpp"

/// \file simd_kernel.hpp
/// Vectorized sorted-hub intersection for the batched query path
/// (hub/flat_labeling.hpp, `FlatHubLabeling::query_batch`).
///
/// A hub-label query is the intersection of two ascending hub columns plus
/// a distance-sum minimum — the serving hot path the paper's Section 1.1
/// trade-off prices.  The kernels read the served layout: a u32 hub column
/// and a u32 distance column (`Dist32`, 8 bytes per entry), and widen
/// every distance to `Dist` before adding, so two distances just below
/// 2^32 sum exactly.  They process the columns in SIMD blocks
/// (all-lanes-vs-all-lanes equality over register rotations, the idiom of
/// vectorized sorted-set intersection), fold each block's matches through
/// the B lane its rotation implies, and finish the tails on the scalar
/// sentinel merge, behind a three-tier dispatch:
///
///   1. compile time — each ISA kernel lives in its own TU
///      (`simd_kernel_avx2.cpp`, `simd_kernel_avx512.cpp`) compiled with
///      the matching `-m` flags only when the toolchain supports them;
///   2. run time — `best_supported_tier()` probes the executing CPU
///      (`__builtin_cpu_supports`) so a binary built with AVX-512 TUs
///      still runs correctly on an AVX2-only host;
///   3. fallback — `Tier::kScalar` is `sentinel_merge`, always available.
///
/// Every tier returns *byte-identical* answers — the same distance and the
/// same meeting hub (the smallest hub id achieving the minimal distance).
/// Set `HUBLAB_FORCE_SCALAR=1` in the environment to pin `active_tier()`
/// to the scalar fallback (read once, like HUBLAB_THREADS).
///
/// Raw intrinsics are confined to the `src/hub/simd_kernel*` TUs — the
/// `simd` lint pass enforces this; the header stays ISA-agnostic.

namespace hublab {

/// A distance in the served (narrow) label column.  FlatHubLabeling uses
/// it whenever every label distance is below kInfDist32.
using Dist32 = std::uint32_t;

/// Sentinel-slot distance of the narrow column.
inline constexpr Dist32 kInfDist32 = 0xFFFFFFFFU;

}  // namespace hublab

namespace hublab::simd {

/// Dispatch tiers, ordered by preference (higher = wider vectors).
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Best tier whose kernel is both compiled in and supported by the
/// executing CPU.  Ignores HUBLAB_FORCE_SCALAR.
[[nodiscard]] Tier best_supported_tier() noexcept;

/// Every tier reachable on this host, ascending (always starts with
/// kScalar) — the sweep set for byte-identity tests.
[[nodiscard]] std::vector<Tier> supported_tiers();

/// True when the HUBLAB_FORCE_SCALAR environment knob pins the dispatch
/// to the scalar fallback (read once at first call).
[[nodiscard]] bool force_scalar() noexcept;

/// The tier `FlatHubLabeling::query_batch` dispatches to:
/// best_supported_tier(), unless force_scalar().
[[nodiscard]] Tier active_tier() noexcept;

/// Fold a common hub into the running (dist, hub) lexicographic minimum.
inline void fold_match(HubQueryResult& best, Vertex hub, Dist d) {
  if (d < best.dist || (d == best.dist && hub < best.meeting_hub)) {
    best.dist = d;
    best.meeting_hub = hub;
  }
}

/// Attribution probe that records nothing (the plain merge).
struct NoProbe {
  void scanned() noexcept {}
  void matched() noexcept {}
};

/// The sentinel merge, written once for both distance columns (`D` is
/// Dist32 or Dist) and parameterised over the attribution probe
/// (`metrics::QueryStats` for `hublab explain`, NoProbe otherwise).  Folds
/// the common hubs of two sentinel-terminated labels into `best`: the
/// whole query for the scalar tier and the u64 column, the tail after the
/// SIMD blocks otherwise.  The loop only tests hub values and stops when
/// both cursors reach their kInvalidVertex sentinels; each distance widens
/// to Dist before the add.  Common hubs arrive in ascending order (the
/// block walks of the SIMD tiers also leave every hub they folded behind
/// at least one cursor), so strict < keeps the smallest hub among ties.
template <typename D, typename Probe = NoProbe>
[[nodiscard]] inline HubQueryResult sentinel_merge(const Vertex* hubs_a, const D* dists_a,
                                                   const Vertex* hubs_b, const D* dists_b,
                                                   HubQueryResult best = {},
                                                   Probe&& probe = Probe{}) {
  for (;;) {
    const Vertex a = *hubs_a;
    const Vertex b = *hubs_b;
    if (a == b) {
      if (a == kInvalidVertex) break;  // both cursors hit their sentinels
      probe.scanned();
      probe.matched();
      const Dist d = Dist{*dists_a} + Dist{*dists_b};
      if (d < best.dist) {
        best.dist = d;
        best.meeting_hub = a;
      }
      ++hubs_a, ++dists_a;
      ++hubs_b, ++dists_b;
    } else if (a < b) {
      probe.scanned();
      ++hubs_a, ++dists_a;
    } else {
      probe.scanned();
      ++hubs_b, ++dists_b;
    }
  }
  return best;
}

/// One sorted-hub intersection + distance-min over raw label columns.
/// `hubs_*` / `dists_*` point at a label of `size_*` real entries followed
/// by a kInvalidVertex/kInfDist32 sentinel pair (the FlatHubLabeling
/// layout); the sentinel lets the scalar tail run without bounds checks.
/// Unavailable tiers degrade to the scalar kernel (same answer).
[[nodiscard]] HubQueryResult intersect(Tier tier, const Vertex* hubs_a, const Dist32* dists_a,
                                       std::size_t size_a, const Vertex* hubs_b,
                                       const Dist32* dists_b, std::size_t size_b);

/// Signature shared by every tier's intersection kernel (arguments as in
/// intersect(), minus the tier).
using KernelFn = HubQueryResult (*)(const Vertex* hubs_a, const Dist32* dists_a,
                                    std::size_t size_a, const Vertex* hubs_b,
                                    const Dist32* dists_b, std::size_t size_b);

/// Resolve `tier` to its kernel once (unavailable tiers degrade to the
/// scalar kernel), so batch loops pay the dispatch per block instead of
/// per pair.  intersect() is kernel_for(tier)(...).
[[nodiscard]] KernelFn kernel_for(Tier tier) noexcept;

/// Stamp-table probe: the kernel for blocks of at least 32 pairs on small
/// graphs.  `query_batch` scatters each source group's label into dense
/// per-hub tables (`stamp[h] == current` marks h ∈ S(source), `sdist[h]`
/// its distance), then answers every query of the group with one linear
/// scan of the *target* label — `size_t_` entries of `hubs_t`/`dists_t` —
/// probing the tables per hub.  `query_batch` takes this path only while
/// both tables (4 + 4 bytes per vertex) fit in 32 KiB of L1 (n <= 4096):
/// the scan then has no merge branches to mispredict and its gathers hit
/// L1, but on larger graphs every probe misses and the per-block table
/// set-up is never repaid (served pairs rarely share a source).  The
/// AVX2/AVX-512 tiers vectorize the scan with gathered stamp loads.  Same
/// answer as intersect() on the same labels: the lexicographic (dist, hub)
/// minimum over the common hubs.
using ProbeFn = HubQueryResult (*)(const Vertex* hubs_t, const Dist32* dists_t,
                                   std::size_t size_t_, const std::uint32_t* stamp,
                                   const Dist32* sdist, std::uint32_t current);

/// Resolve `tier` to its stamp-table probe kernel (unavailable tiers
/// degrade to the scalar probe).
[[nodiscard]] ProbeFn probe_for(Tier tier) noexcept;

namespace detail {

/// 8-lane AVX2 block intersection; defined in simd_kernel_avx2.cpp (only
/// linked when the toolchain can target AVX2).
[[nodiscard]] HubQueryResult intersect_avx2(const Vertex* hubs_a, const Dist32* dists_a,
                                            std::size_t size_a, const Vertex* hubs_b,
                                            const Dist32* dists_b, std::size_t size_b);

/// 16-lane AVX-512 block intersection; defined in simd_kernel_avx512.cpp.
[[nodiscard]] HubQueryResult intersect_avx512(const Vertex* hubs_a, const Dist32* dists_a,
                                              std::size_t size_a, const Vertex* hubs_b,
                                              const Dist32* dists_b, std::size_t size_b);

/// Scalar stamp-table probe (see ProbeFn).
[[nodiscard]] HubQueryResult probe_scalar(const Vertex* hubs_t, const Dist32* dists_t,
                                          std::size_t size_t_, const std::uint32_t* stamp,
                                          const Dist32* sdist, std::uint32_t current);

/// 8-lane AVX2 stamp-table probe (gathered stamp loads).
[[nodiscard]] HubQueryResult probe_avx2(const Vertex* hubs_t, const Dist32* dists_t,
                                        std::size_t size_t_, const std::uint32_t* stamp,
                                        const Dist32* sdist, std::uint32_t current);

/// 16-lane AVX-512 stamp-table probe.
[[nodiscard]] HubQueryResult probe_avx512(const Vertex* hubs_t, const Dist32* dists_t,
                                          std::size_t size_t_, const std::uint32_t* stamp,
                                          const Dist32* sdist, std::uint32_t current);

}  // namespace detail

}  // namespace hublab::simd
