// AVX-512 tier of the batched query kernel (see simd_kernel.hpp): the
// same block-intersection walk as the AVX2 TU but over 16-hub blocks,
// with _mm512_permutexvar_epi32 rotations and compare-to-mask
// (_mm512_cmpeq_epi32_mask) replacing the movemask dance.  The matches of
// a block pair are folded in registers: the sixteen compare masks give
// every matched A lane its B lane, one permute of B's sixteen u32
// distances lines them up with A's, both widen to u64 per 8-lane half for
// the add, and a masked minimum reduction picks the block's best
// (dist, hub).  Answers are byte-identical to every other tier —
// lexicographic (dist, hub) minimum over the common hubs.
//
// This TU is compiled with -mavx512f only when the toolchain supports it
// (src/hub/CMakeLists.txt); raw intrinsics stay confined to the
// src/hub/simd_kernel* TUs (the `simd` lint pass).

#include "hub/simd_kernel.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace hublab::simd::detail {

// GCC's _mm512_permutexvar_epi32 routes a self-initialized
// _mm512_undefined_epi32() don't-care merge source through the builtin;
// -Wmaybe-uninitialized (GCC 12) flags it through the inline even though
// the all-ones implicit mask makes the value irrelevant.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

HubQueryResult intersect_avx512(const Vertex* hubs_a, const Dist32* dists_a, std::size_t size_a,
                                const Vertex* hubs_b, const Dist32* dists_b,
                                std::size_t size_b) {
  HubQueryResult best;
  std::size_t ia = 0;
  std::size_t ib = 0;
  // Rotation index vectors for the 16x16 all-pairs compare, all applied to
  // the *original* B block so the fifteen permutes are independent; the
  // compares are hand-unrolled and the masks OR-reduced as a balanced
  // tree.  (GCC at -O2 compiles the obvious rotate-accumulate loop into a
  // 15-trip loop with a loop-carried OR — ~4x the per-block cost.)
  const __m512i r0 = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i r1 = _mm512_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0);
  const __m512i r2 = _mm512_setr_epi32(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1);
  const __m512i r3 = _mm512_setr_epi32(3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2);
  const __m512i r4 = _mm512_setr_epi32(4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3);
  const __m512i r5 = _mm512_setr_epi32(5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4);
  const __m512i r6 = _mm512_setr_epi32(6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5);
  const __m512i r7 = _mm512_setr_epi32(7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6);
  const __m512i r8 = _mm512_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i r9 = _mm512_setr_epi32(9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8);
  const __m512i r10 = _mm512_setr_epi32(10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9);
  const __m512i r11 = _mm512_setr_epi32(11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10);
  const __m512i r12 = _mm512_setr_epi32(12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11);
  const __m512i r13 = _mm512_setr_epi32(13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12);
  const __m512i r14 = _mm512_setr_epi32(14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13);
  const __m512i r15 = _mm512_setr_epi32(15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14);
  const __m512i no_match = _mm512_set1_epi64(-1);  // kInfDist in every u64 lane
  while (ia + 16 <= size_a && ib + 16 <= size_b) {
    const __m512i va = _mm512_loadu_si512(hubs_a + ia);
    const __m512i vb = _mm512_loadu_si512(hubs_b + ib);
    const __mmask16 e0 = _mm512_cmpeq_epi32_mask(va, vb);
    const __mmask16 e1 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r1, vb));
    const __mmask16 e2 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r2, vb));
    const __mmask16 e3 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r3, vb));
    const __mmask16 e4 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r4, vb));
    const __mmask16 e5 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r5, vb));
    const __mmask16 e6 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r6, vb));
    const __mmask16 e7 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r7, vb));
    const __mmask16 e8 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r8, vb));
    const __mmask16 e9 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r9, vb));
    const __mmask16 e10 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r10, vb));
    const __mmask16 e11 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r11, vb));
    const __mmask16 e12 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r12, vb));
    const __mmask16 e13 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r13, vb));
    const __mmask16 e14 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r14, vb));
    const __mmask16 e15 = _mm512_cmpeq_epi32_mask(va, _mm512_permutexvar_epi32(r15, vb));
    const unsigned upper = ((e8 | e9) | (e10 | e11)) | ((e12 | e13) | (e14 | e15));
    const unsigned mask = (((e0 | e1) | (e2 | e3)) | ((e4 | e5) | (e6 | e7))) | upper;
    if (mask != 0) {
      // Lane i of A matched lane (i + k) mod 16 of B under rotation k, and
      // rotation k's index vector r_k holds exactly (i + k) mod 16 in lane
      // i.  Hubs are unique per label, so the sixteen masks are disjoint
      // and mask_mov assembles the per-lane B index in two independent
      // chains (rotations 0-7 and 8-15) joined by one final move.
      __m512i lo = _mm512_mask_mov_epi32(r0, e1, r1);
      lo = _mm512_mask_mov_epi32(lo, e2, r2);
      lo = _mm512_mask_mov_epi32(lo, e3, r3);
      lo = _mm512_mask_mov_epi32(lo, e4, r4);
      lo = _mm512_mask_mov_epi32(lo, e5, r5);
      lo = _mm512_mask_mov_epi32(lo, e6, r6);
      lo = _mm512_mask_mov_epi32(lo, e7, r7);
      __m512i hi = _mm512_mask_mov_epi32(r8, e9, r9);
      hi = _mm512_mask_mov_epi32(hi, e10, r10);
      hi = _mm512_mask_mov_epi32(hi, e11, r11);
      hi = _mm512_mask_mov_epi32(hi, e12, r12);
      hi = _mm512_mask_mov_epi32(hi, e13, r13);
      hi = _mm512_mask_mov_epi32(hi, e14, r14);
      hi = _mm512_mask_mov_epi32(hi, e15, r15);
      const __m512i idx = _mm512_mask_mov_epi32(lo, static_cast<__mmask16>(upper), hi);
      // One permute lines B's sixteen u32 distances up with A's lanes;
      // each 8-lane half of both then widens to u64 for the add, so two
      // distances just below 2^32 sum exactly.
      const __m512i da = _mm512_loadu_si512(dists_a + ia);
      const __m512i db = _mm512_permutexvar_epi32(idx, _mm512_loadu_si512(dists_b + ib));
      const __m512i sum0 = _mm512_add_epi64(_mm512_cvtepu32_epi64(_mm512_castsi512_si256(da)),
                                            _mm512_cvtepu32_epi64(_mm512_castsi512_si256(db)));
      const __m512i sum1 =
          _mm512_add_epi64(_mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(da, 1)),
                           _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(db, 1)));
      const auto m0 = static_cast<__mmask8>(mask);
      const auto m1 = static_cast<__mmask8>(mask >> 8);
      const Dist d = _mm512_reduce_min_epu64(_mm512_min_epu64(
          _mm512_mask_mov_epi64(no_match, m0, sum0), _mm512_mask_mov_epi64(no_match, m1, sum1)));
      // Blocks visit the common hubs in ascending order (see the advance
      // below), so strict < is the scalar merge's update rule; within the
      // block the lowest matched lane at the minimum is the smallest hub.
      if (d < best.dist) {
        const __m512i vd = _mm512_set1_epi64(static_cast<long long>(d));
        const unsigned at0 = _mm512_mask_cmpeq_epu64_mask(m0, sum0, vd);
        const unsigned at1 = _mm512_mask_cmpeq_epu64_mask(m1, sum1, vd);
        const unsigned at = at0 | (at1 << 8);
        best.dist = d;
        best.meeting_hub = hubs_a[ia + static_cast<std::size_t>(__builtin_ctz(at))];
      }
    }
    // Branchless block advance: whichever side's maximum is not larger
    // steps (both on a tie).  A conditional branch here is data-dependent
    // and ~50/50, so mispredicts would dominate the whole kernel.
    const Vertex amax = hubs_a[ia + 15];
    const Vertex bmax = hubs_b[ib + 15];
    ia += static_cast<std::size_t>(amax <= bmax) * 16;
    ib += static_cast<std::size_t>(bmax <= amax) * 16;
  }
  return sentinel_merge(hubs_a + ia, dists_a + ia, hubs_b + ib, dists_b + ib, best);
}

HubQueryResult probe_avx512(const Vertex* hubs_t, const Dist32* dists_t, std::size_t size_t_,
                            const std::uint32_t* stamp, const Dist32* sdist,
                            std::uint32_t current) {
  HubQueryResult best;
  const __m512i vcur = _mm512_set1_epi32(static_cast<int>(current));
  std::size_t i = 0;
  // 16 target hubs per step: gather their stamps (the table is
  // L1-resident — the gather hits cache), compare against the group
  // stamp, fold the hits scalarly.  No data-dependent advance: the scan is
  // a straight line over the target label.
  for (; i + 16 <= size_t_; i += 16) {
    const __m512i vh = _mm512_loadu_si512(hubs_t + i);
    const __m512i vs = _mm512_i32gather_epi32(vh, stamp, sizeof(std::uint32_t));
    auto mask = static_cast<unsigned>(_mm512_cmpeq_epi32_mask(vs, vcur));
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

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace hublab::simd::detail

#endif  // defined(__AVX512F__)
