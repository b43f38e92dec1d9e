// ISA-dispatched quantize/dequantize kernels.  See qkernels.h for the
// determinism argument; this translation unit must be compiled with
// -ffp-contract=off (enforced in CMakeLists.txt) so the explicit
// mul-then-add intrinsic pairs can never be contracted to FMA.
#include "quant/qkernels.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define SQ_QK_MULTI_ISA 1
#include <immintrin.h>
#define SQ_QK_TARGET_AVX2 __attribute__((target("avx2")))
#define SQ_QK_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define SQ_QK_MULTI_ISA 0
#endif

namespace sq::quant {

namespace {

// Raw per-ISA loop signatures.  `inv_scale` is precomputed by the wrapper
// exactly as the scalar reference does (1/scale, or 0 when scale == 0).
struct Kernels {
  const char* name;
  void (*minmax)(const float*, std::size_t, float*, float*);
  void (*quantize)(const float*, std::size_t, float zero, float inv_scale,
                   std::int32_t lo, std::int32_t hi, std::int32_t*);
  void (*dequant)(const std::int32_t*, std::size_t, float scale, float zero,
                  float*);
  void (*qdq)(const float*, std::size_t, float zero, float inv_scale,
              float scale, std::int32_t lo, std::int32_t hi, float*);
};

// ---- Scalar base path (and tail loops of the vector paths) --------------
// These loops are byte-for-byte the reference loops in quantizer.cpp.

void minmax_base(const float* v, std::size_t n, float* mn, float* mx) {
  const auto [lo, hi] = std::minmax_element(v, v + n);
  *mn = *lo;
  *mx = *hi;
}

void quantize_base(const float* v, std::size_t n, float zero, float inv_scale,
                   std::int32_t lo, std::int32_t hi, std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const float scaled = (v[i] - zero) * inv_scale;
    const float rounded = std::nearbyint(scaled);
    out[i] = std::clamp(static_cast<std::int32_t>(rounded), lo, hi);
  }
}

void dequant_base(const std::int32_t* c, std::size_t n, float scale, float zero,
                  float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = scale * static_cast<float>(c[i]) + zero;
  }
}

void qdq_base(const float* v, std::size_t n, float zero, float inv_scale,
              float scale, std::int32_t lo, std::int32_t hi, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const float scaled = (v[i] - zero) * inv_scale;
    const float rounded = std::nearbyint(scaled);
    const std::int32_t code = std::clamp(static_cast<std::int32_t>(rounded), lo, hi);
    out[i] = scale * static_cast<float>(code) + zero;
  }
}

#if SQ_QK_MULTI_ISA

// ---- AVX2 (8-wide) ------------------------------------------------------
// _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC (imm 0x0C) is exactly
// std::nearbyint: honor MXCSR.RC, raise no inexact.  cvttps truncates the
// already-integral rounded value, matching static_cast<int32> (both yield
// INT_MIN on overflow, which the clamp then pins to `lo` either way).

SQ_QK_TARGET_AVX2
void minmax_avx2(const float* v, std::size_t n, float* mn, float* mx) {
  std::size_t i = 0;
  float m0 = v[0], m1 = v[0];
  if (n >= 8) {
    __m256 vmn = _mm256_loadu_ps(v);
    __m256 vmx = vmn;
    for (i = 8; i + 8 <= n; i += 8) {
      const __m256 x = _mm256_loadu_ps(v + i);
      vmn = _mm256_min_ps(vmn, x);
      vmx = _mm256_max_ps(vmx, x);
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vmn);
    m0 = lanes[0];
    for (int l = 1; l < 8; ++l) m0 = lanes[l] < m0 ? lanes[l] : m0;
    _mm256_store_ps(lanes, vmx);
    m1 = lanes[0];
    for (int l = 1; l < 8; ++l) m1 = lanes[l] > m1 ? lanes[l] : m1;
  }
  for (; i < n; ++i) {
    m0 = v[i] < m0 ? v[i] : m0;
    m1 = v[i] > m1 ? v[i] : m1;
  }
  *mn = m0;
  *mx = m1;
}

SQ_QK_TARGET_AVX2
void quantize_avx2(const float* v, std::size_t n, float zero, float inv_scale,
                   std::int32_t lo, std::int32_t hi, std::int32_t* out) {
  const __m256 vz = _mm256_set1_ps(zero);
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 scaled =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(v + i), vz), vs);
    const __m256 rounded =
        _mm256_round_ps(scaled, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    __m256i code = _mm256_cvttps_epi32(rounded);
    code = _mm256_min_epi32(_mm256_max_epi32(code, vlo), vhi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), code);
  }
  quantize_base(v + i, n - i, zero, inv_scale, lo, hi, out + i);
}

SQ_QK_TARGET_AVX2
void dequant_avx2(const std::int32_t* c, std::size_t n, float scale, float zero,
                  float* out) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vz = _mm256_set1_ps(zero);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i)));
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_mul_ps(vs, f), vz));
  }
  dequant_base(c + i, n - i, scale, zero, out + i);
}

SQ_QK_TARGET_AVX2
void qdq_avx2(const float* v, std::size_t n, float zero, float inv_scale,
              float scale, std::int32_t lo, std::int32_t hi, float* out) {
  const __m256 vz = _mm256_set1_ps(zero);
  const __m256 vis = _mm256_set1_ps(inv_scale);
  const __m256 vsc = _mm256_set1_ps(scale);
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 scaled =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(v + i), vz), vis);
    const __m256 rounded =
        _mm256_round_ps(scaled, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    __m256i code = _mm256_cvttps_epi32(rounded);
    code = _mm256_min_epi32(_mm256_max_epi32(code, vlo), vhi);
    const __m256 f = _mm256_cvtepi32_ps(code);
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_mul_ps(vsc, f), vz));
  }
  qdq_base(v + i, n - i, zero, inv_scale, scale, lo, hi, out + i);
}

// ---- AVX-512 (16-wide) --------------------------------------------------
// roundscale imm 0x0C: M=0, suppress-precision, use MXCSR — nearbyint again.

SQ_QK_TARGET_AVX512
void minmax_avx512(const float* v, std::size_t n, float* mn, float* mx) {
  std::size_t i = 0;
  float m0 = v[0], m1 = v[0];
  if (n >= 16) {
    __m512 vmn = _mm512_loadu_ps(v);
    __m512 vmx = vmn;
    for (i = 16; i + 16 <= n; i += 16) {
      const __m512 x = _mm512_loadu_ps(v + i);
      vmn = _mm512_min_ps(vmn, x);
      vmx = _mm512_max_ps(vmx, x);
    }
    m0 = _mm512_reduce_min_ps(vmn);
    m1 = _mm512_reduce_max_ps(vmx);
  }
  for (; i < n; ++i) {
    m0 = v[i] < m0 ? v[i] : m0;
    m1 = v[i] > m1 ? v[i] : m1;
  }
  *mn = m0;
  *mx = m1;
}

SQ_QK_TARGET_AVX512
void quantize_avx512(const float* v, std::size_t n, float zero, float inv_scale,
                     std::int32_t lo, std::int32_t hi, std::int32_t* out) {
  const __m512 vz = _mm512_set1_ps(zero);
  const __m512 vs = _mm512_set1_ps(inv_scale);
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 scaled =
        _mm512_mul_ps(_mm512_sub_ps(_mm512_loadu_ps(v + i), vz), vs);
    const __m512 rounded = _mm512_roundscale_ps(
        scaled, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    __m512i code = _mm512_cvttps_epi32(rounded);
    code = _mm512_min_epi32(_mm512_max_epi32(code, vlo), vhi);
    _mm512_storeu_si512(out + i, code);
  }
  quantize_base(v + i, n - i, zero, inv_scale, lo, hi, out + i);
}

SQ_QK_TARGET_AVX512
void dequant_avx512(const std::int32_t* c, std::size_t n, float scale,
                    float zero, float* out) {
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vz = _mm512_set1_ps(zero);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 f = _mm512_cvtepi32_ps(_mm512_loadu_si512(c + i));
    _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_mul_ps(vs, f), vz));
  }
  dequant_base(c + i, n - i, scale, zero, out + i);
}

SQ_QK_TARGET_AVX512
void qdq_avx512(const float* v, std::size_t n, float zero, float inv_scale,
                float scale, std::int32_t lo, std::int32_t hi, float* out) {
  const __m512 vz = _mm512_set1_ps(zero);
  const __m512 vis = _mm512_set1_ps(inv_scale);
  const __m512 vsc = _mm512_set1_ps(scale);
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 scaled =
        _mm512_mul_ps(_mm512_sub_ps(_mm512_loadu_ps(v + i), vz), vis);
    const __m512 rounded = _mm512_roundscale_ps(
        scaled, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    __m512i code = _mm512_cvttps_epi32(rounded);
    code = _mm512_min_epi32(_mm512_max_epi32(code, vlo), vhi);
    const __m512 f = _mm512_cvtepi32_ps(code);
    _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_mul_ps(vsc, f), vz));
  }
  qdq_base(v + i, n - i, zero, inv_scale, scale, lo, hi, out + i);
}

#endif  // SQ_QK_MULTI_ISA

// ---- Dispatch -----------------------------------------------------------

constexpr Kernels kBase{"base", minmax_base, quantize_base, dequant_base,
                        qdq_base};
#if SQ_QK_MULTI_ISA
constexpr Kernels kAvx2{"avx2", minmax_avx2, quantize_avx2, dequant_avx2,
                        qdq_avx2};
constexpr Kernels kAvx512{"avx512", minmax_avx512, quantize_avx512,
                          dequant_avx512, qdq_avx512};
#endif

const Kernels* pick_kernels() {
#if SQ_QK_MULTI_ISA
  if (__builtin_cpu_supports("avx512f")) return &kAvx512;
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return &kBase;
}

std::atomic<const Kernels*>& current_kernels() {
  static std::atomic<const Kernels*> cur{pick_kernels()};
  return cur;
}

const Kernels& kernels() { return *current_kernels().load(std::memory_order_acquire); }

/// Resolve a 0.0 extremum against std::minmax_element's scan order (first
/// minimum, last maximum) so the sign bit of a zero min/max matches the
/// scalar reference.  -0.0 == 0.0 under operator<, so which zero wins is
/// purely a scan-order artifact; vector min/max do not preserve it.
void fix_zero_extrema(const float* v, std::size_t n, float* mn, float* mx) {
  if (*mn == 0.0f) {
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] == 0.0f) {
        *mn = v[i];
        break;
      }
    }
  }
  if (*mx == 0.0f) {
    for (std::size_t i = n; i-- > 0;) {
      if (v[i] == 0.0f) {
        *mx = v[i];
        break;
      }
    }
  }
}

float inv_scale_of(const QuantParams& p) {
  return p.scale != 0.0f ? 1.0f / p.scale : 0.0f;
}

}  // namespace

const char* qkernel_isa() { return kernels().name; }

bool set_qkernel_isa(const char* name) {
  const Kernels* next = nullptr;
  if (std::strcmp(name, "auto") == 0) {
    next = pick_kernels();
  } else if (std::strcmp(name, "base") == 0) {
    next = &kBase;
  }
#if SQ_QK_MULTI_ISA
  else if (std::strcmp(name, "avx2") == 0 && __builtin_cpu_supports("avx2")) {
    next = &kAvx2;
  } else if (std::strcmp(name, "avx512") == 0 &&
             __builtin_cpu_supports("avx512f")) {
    next = &kAvx512;
  }
#endif
  if (next == nullptr) return false;
  current_kernels().store(next, std::memory_order_release);
  return true;
}

void minmax(std::span<const float> values, float* mn, float* mx) {
  assert(!values.empty() && "minmax: empty span");
  const Kernels& k = kernels();
  k.minmax(values.data(), values.size(), mn, mx);
  fix_zero_extrema(values.data(), values.size(), mn, mx);
}

void group_minmax(std::span<const float> values, std::size_t group_size,
                  std::span<float> mins, std::span<float> maxs) {
  assert(group_size > 0 && "group_minmax: zero group size");
  const std::size_t n_groups = (values.size() + group_size - 1) / group_size;
  assert(mins.size() >= n_groups && maxs.size() >= n_groups);
  const Kernels& k = kernels();
  for (std::size_t g = 0; g < n_groups; ++g) {
    const std::size_t begin = g * group_size;
    const std::size_t len = std::min(group_size, values.size() - begin);
    k.minmax(values.data() + begin, len, &mins[g], &maxs[g]);
    fix_zero_extrema(values.data() + begin, len, &mins[g], &maxs[g]);
  }
}

void quantize_codes(std::span<const float> values, const QuantParams& params,
                    std::int32_t lo, std::int32_t hi,
                    std::span<std::int32_t> codes_out) {
  assert(codes_out.size() == values.size());
  kernels().quantize(values.data(), values.size(), params.zero,
                     inv_scale_of(params), lo, hi, codes_out.data());
}

void quantize_grouped(std::span<const float> values,
                      std::span<const QuantParams> params,
                      std::size_t group_size, std::int32_t lo, std::int32_t hi,
                      std::span<std::int32_t> codes_out) {
  assert(group_size > 0 && codes_out.size() == values.size());
  const std::size_t n_groups = (values.size() + group_size - 1) / group_size;
  assert(params.size() >= n_groups);
  const Kernels& k = kernels();
  for (std::size_t g = 0; g < n_groups; ++g) {
    const std::size_t begin = g * group_size;
    const std::size_t len = std::min(group_size, values.size() - begin);
    k.quantize(values.data() + begin, len, params[g].zero,
               inv_scale_of(params[g]), lo, hi, codes_out.data() + begin);
  }
}

void dequantize_codes(std::span<const std::int32_t> codes,
                      const QuantParams& params, std::span<float> out) {
  assert(out.size() == codes.size());
  kernels().dequant(codes.data(), codes.size(), params.scale, params.zero,
                    out.data());
}

void quantize_dequant(std::span<const float> values, const QuantParams& params,
                      std::int32_t lo, std::int32_t hi, std::span<float> out) {
  assert(out.size() == values.size());
  kernels().qdq(values.data(), values.size(), params.zero, inv_scale_of(params),
                params.scale, lo, hi, out.data());
}

}  // namespace sq::quant
