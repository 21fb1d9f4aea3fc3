// AVX2 tier of the batched query kernel (see simd_kernel.hpp): 8-lane
// block intersection of two ascending hub columns.  Each step compares one
// 8-hub block of A against all 8 rotations of one 8-hub block of B
// (all-pairs equality via _mm256_permutevar8x32_epi32 + cmpeq), folds
// each match through the B lane index its rotation implies, and advances
// whichever block's maximum is not larger — the standard vectorized
// sorted-set-intersection walk, which visits every common hub exactly once
// and in globally ascending hub order.  Tails shorter than a block finish
// on the sentinel merge.  Distances are u32 columns, widened to u64 before
// each add.  The lexicographic (dist, hub) minimum makes the answer
// byte-identical to the scalar kernel: smallest distance, and among ties
// the smallest hub id.
//
// This TU is compiled with -mavx2 only when the toolchain supports it
// (src/hub/CMakeLists.txt); raw intrinsics stay confined to the
// src/hub/simd_kernel* TUs (the `simd` lint pass).

#include "hub/simd_kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hublab::simd::detail {

HubQueryResult intersect_avx2(const Vertex* hubs_a, const Dist32* dists_a, std::size_t size_a,
                              const Vertex* hubs_b, const Dist32* dists_b, std::size_t size_b) {
  HubQueryResult best;
  std::size_t ia = 0;
  std::size_t ib = 0;
  // Rotation index vectors for the 8x8 all-pairs compare, all applied to
  // the *original* B block so the seven permutes are independent; the
  // compares are hand-unrolled and OR-reduced as a balanced tree.  (GCC at
  // -O2 compiles the obvious rotate-accumulate loop into a 7-trip loop
  // with a loop-carried OR — ~4x the per-block cost.)
  const __m256i r0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i r1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256i r2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
  const __m256i r3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
  const __m256i r4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
  const __m256i r5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
  const __m256i r6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
  const __m256i r7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  while (ia + 8 <= size_a && ib + 8 <= size_b) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hubs_a + ia));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hubs_b + ib));
    const __m256i e0 = _mm256_cmpeq_epi32(va, vb);
    const __m256i e1 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r1));
    const __m256i e2 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r2));
    const __m256i e3 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r3));
    const __m256i e4 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r4));
    const __m256i e5 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r5));
    const __m256i e6 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r6));
    const __m256i e7 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r7));
    const __m256i eq = _mm256_or_si256(
        _mm256_or_si256(_mm256_or_si256(e0, e1), _mm256_or_si256(e2, e3)),
        _mm256_or_si256(_mm256_or_si256(e4, e5), _mm256_or_si256(e6, e7)));
    auto mask = static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    if (mask != 0) {
      // Lane i of A matched lane (i + k) mod 8 of B under rotation k, and
      // rotation k's index vector r_k holds exactly (i + k) mod 8 in lane
      // i.  Hubs are unique per label, so the eight compare masks are
      // disjoint and OR-ing each r_k under its mask yields B's lane index
      // for every matched lane of A.
      const __m256i idx = _mm256_or_si256(
          _mm256_or_si256(
              _mm256_or_si256(_mm256_and_si256(e0, r0), _mm256_and_si256(e1, r1)),
              _mm256_or_si256(_mm256_and_si256(e2, r2), _mm256_and_si256(e3, r3))),
          _mm256_or_si256(
              _mm256_or_si256(_mm256_and_si256(e4, r4), _mm256_and_si256(e5, r5)),
              _mm256_or_si256(_mm256_and_si256(e6, r6), _mm256_and_si256(e7, r7))));
      alignas(32) std::uint32_t lane_b[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lane_b), idx);
      do {
        const auto lane = static_cast<std::size_t>(__builtin_ctz(mask));
        mask &= mask - 1;
        fold_match(best, hubs_a[ia + lane],
                   Dist{dists_a[ia + lane]} + Dist{dists_b[ib + lane_b[lane]]});
      } while (mask != 0);
    }
    // Branchless block advance: whichever side's maximum is not larger
    // steps (both on a tie).  A conditional branch here is data-dependent
    // and ~50/50, so mispredicts would dominate the whole kernel.
    const Vertex amax = hubs_a[ia + 7];
    const Vertex bmax = hubs_b[ib + 7];
    ia += static_cast<std::size_t>(amax <= bmax) * 8;
    ib += static_cast<std::size_t>(bmax <= amax) * 8;
  }
  return sentinel_merge(hubs_a + ia, dists_a + ia, hubs_b + ib, dists_b + ib, best);
}

HubQueryResult probe_avx2(const Vertex* hubs_t, const Dist32* dists_t, std::size_t size_t_,
                          const std::uint32_t* stamp, const Dist32* sdist,
                          std::uint32_t current) {
  HubQueryResult best;
  const __m256i vcur = _mm256_set1_epi32(static_cast<int>(current));
  std::size_t i = 0;
  // 8 target hubs per step: gather their stamps (the table is
  // L1-resident — the gather hits cache), compare against the group
  // stamp, fold the hits scalarly.  No data-dependent advance: the scan is
  // a straight line over the target label.
  for (; i + 8 <= size_t_; i += 8) {
    const __m256i vh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hubs_t + i));
    const __m256i vs =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(stamp), vh, sizeof(std::uint32_t));
    const __m256i eq = _mm256_cmpeq_epi32(vs, vcur);
    auto mask = static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    while (mask != 0) {
      const auto lane = static_cast<std::size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      const Vertex h = hubs_t[i + lane];
      fold_match(best, h, Dist{sdist[h]} + Dist{dists_t[i + lane]});
    }
  }
  for (; i < size_t_; ++i) {
    const Vertex h = hubs_t[i];
    if (stamp[h] == current) fold_match(best, h, Dist{sdist[h]} + Dist{dists_t[i]});
  }
  return best;
}

}  // namespace hublab::simd::detail

#endif  // defined(__AVX2__)
