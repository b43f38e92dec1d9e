// ISA-dispatched quantize/dequantize inner loops.
//
// The scalar loops in quantizer.cpp stay as the byte-equality oracle;
// everything here is a faster route to the *same bits*, following the
// determinism contract of the GEMM layer (tensor/gemm.h):
//
//   1. Every quantize/dequantize element is an independent chain
//      ((v - zero) * inv_scale -> round -> clamp, or scale * code + zero),
//      so vector width cannot change results as long as the operation
//      sequence is preserved.  The SIMD paths use explicit mul-then-add
//      intrinsics and this translation unit is compiled with
//      -ffp-contract=off, so no FMA contraction can fuse them.
//   2. Rounding uses the vector round-with-MXCSR encoding, which is
//      exactly std::nearbyint's semantics (current rounding mode, no
//      inexact flag) — identical bits in every rounding mode.
//   3. Min/max reductions are order-independent for finite floats except
//      for the sign of 0.0; the kernels re-resolve a 0.0 extremum against
//      the scan order std::minmax_element uses (first minimum, last
//      maximum), so compute_params sees identical bytes.  Inputs are
//      assumed finite (weights are; NaN propagation is unspecified).
//
// Dispatch mirrors gemm.cpp: the loops are compiled for SSE2 (the x86-64
// baseline), AVX2 and AVX-512 and selected once at startup via
// __builtin_cpu_supports; tests can force a narrower path to assert all
// levels produce identical bytes on one machine.
#pragma once

#include <cstdint>
#include <span>

#include "quant/quantizer.h"

namespace sq::quant {

/// Name of the dispatched path ("avx512", "avx2" or "base").
/// Informational: all paths produce identical bits.
const char* qkernel_isa();

/// Test hook: force a dispatch path by name ("base", "avx2", "avx512") or
/// restore runtime selection ("auto").  Returns false — leaving the
/// dispatch unchanged — when this CPU cannot run the requested path or the
/// name is unknown.  Thread-safe; takes effect on the next kernel call.
bool set_qkernel_isa(const char* name);

/// Min/max of `values` (non-empty, finite), byte-compatible with
/// std::minmax_element: among equal extrema the FIRST minimum and the LAST
/// maximum are returned, which pins the sign of a 0.0 extremum.
void minmax(std::span<const float> values, float* mn, float* mx);

/// Per-group min/max over `values` split into contiguous groups of
/// `group_size` elements (the last group may be short) — the hoisted form
/// of running compute_params' scan group by group.  `mins`/`maxs` must
/// hold ceil(values.size() / group_size) entries.
void group_minmax(std::span<const float> values, std::size_t group_size,
                  std::span<float> mins, std::span<float> maxs);

/// Deterministic quantization: codes[i] = clamp(nearbyint((v[i] - zero) *
/// inv_scale), lo, hi).  Bit-identical to quantize_reference.
void quantize_codes(std::span<const float> values, const QuantParams& params,
                    std::int32_t lo, std::int32_t hi,
                    std::span<std::int32_t> codes_out);

/// Grouped deterministic quantization: group g of `values` (contiguous
/// `group_size`-element chunks, short tail allowed) is quantized with
/// `params[g]`.  One dispatch for a whole tensor.
void quantize_grouped(std::span<const float> values,
                      std::span<const QuantParams> params,
                      std::size_t group_size, std::int32_t lo, std::int32_t hi,
                      std::span<std::int32_t> codes_out);

/// out[i] = scale * codes[i] + zero.  Bit-identical to dequantize_reference.
void dequantize_codes(std::span<const std::int32_t> codes,
                      const QuantParams& params, std::span<float> out);

/// Fused deterministic round-trip: quantize then dequantize without
/// materializing the integer codes.  Bit-identical to quantize_reference
/// followed by dequantize_reference.
void quantize_dequant(std::span<const float> values, const QuantParams& params,
                      std::int32_t lo, std::int32_t hi, std::span<float> out);

}  // namespace sq::quant
