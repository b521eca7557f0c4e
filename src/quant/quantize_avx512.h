// AVX-512 bodies of the u8 hand-off encoding (common/saturate.h
// quantize_u8_shift128_scaled, DESIGN.md decision 13), shared by the
// quantizer and the engines' in-register requant epilogues so every vector
// path encodes a float exactly as the scalar helper does.
#pragma once

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>

namespace lowino {

/// quantize_u8_shift128_scaled on 16 already-scaled lanes, before the +128:
/// int32 in [-128, 127]. Lanes outside `keep` and NaN lanes give 0; the clamp
/// happens in float, so no out-of-range value reaches the conversion, which
/// rounds to nearest even in the default MXCSR mode.
inline __m512i quantize_i32x16(__m512 scaled, __mmask16 keep) {
  keep = _mm512_mask_cmp_ps_mask(keep, scaled, scaled, _CMP_ORD_Q);
  const __m512 x = _mm512_maskz_min_ps(keep, scaled, _mm512_set1_ps(127.0f));
  return _mm512_cvtps_epi32(_mm512_max_ps(x, _mm512_set1_ps(-128.0f)));
}

/// The 64 hand-off bytes of four quantize_i32x16 results, lane 16 g + l of
/// the result from lane l of q[g].
inline __m512i pack_u8x64(__m512i q0, __m512i q1, __m512i q2, __m512i q3) {
  // Dword order of the two packs: each 128-bit lane block holds 4 lanes of
  // each input; this puts q[g]'s 16 lanes back at dwords 4g..4g+3.
  const __m512i unpack = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  const __m512i bytes =
      _mm512_packs_epi16(_mm512_packs_epi32(q0, q1), _mm512_packs_epi32(q2, q3));
  // The +128 shift of a value in [-128, 127] is a flip of its sign bit.
  return _mm512_xor_si512(_mm512_permutexvar_epi32(unpack, bytes),
                          _mm512_set1_epi8(static_cast<char>(0x80)));
}

}  // namespace lowino

#endif  // LOWINO_COMPILE_AVX512
