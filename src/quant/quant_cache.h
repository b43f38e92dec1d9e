// Content-addressed cache of quantized layers.
//
// The planner re-quantizes the same weight matrices over and over: the
// sensitivity probe sweeps bitwidths per layer, every materialized plan
// re-packs the layers it assigns, plan repair re-quantizes after faults,
// and each fleet replica group packs its own shard.  Quantization is pure
// in (weight bytes, bitwidth, scheme, rounding, group size, rng seed), so
// results are memoized in a process-wide sharded cache keyed by a content
// fingerprint — two call sites quantizing identical weights the same way
// share one packed QTensor, whoever got there first.
//
// Cached tensors are shared_ptr<const QTensor>: immutable after
// construction, safe to use from any thread, alive for as long as any
// user holds them even if the cache evicts.  Eviction (per-shard cap in
// MemoCache) only ever costs recomputation — identical bits come back.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/memo_cache.h"
#include "quant/qtensor.h"

namespace sq::quant {

/// Cache key: everything quantization is pure in.  `weight_fp` is a
/// 64-bit content fingerprint of the weight bytes and shape; `seed` is 0
/// for deterministic rounding (the rng never ticks) and the stream seed
/// for stochastic rounding.
struct QuantKey {
  std::uint64_t weight_fp = 0;
  Bitwidth bits = Bitwidth::kFp16;
  Scheme scheme = Scheme::kSymmetric;
  Rounding rounding = Rounding::kDeterministic;
  std::size_t group_size = 0;
  std::uint64_t seed = 0;
  bool operator==(const QuantKey&) const = default;
};

struct QuantKeyHash {
  std::size_t operator()(const QuantKey& k) const;
};

/// 64-bit content fingerprint over the raw float bytes and the shape.
/// Collisions would silently alias two layers; at the repository's scale
/// (dozens of distinct matrices per run) the 64-bit birthday bound makes
/// that a non-concern.
std::uint64_t weight_fingerprint(const sq::tensor::Tensor& w);

/// One whole-model quantization request: quantize `*weights` (must stay
/// alive for the call) with the given knobs.
struct QuantJob {
  const sq::tensor::Tensor* weights = nullptr;
  Bitwidth bits = Bitwidth::kFp16;
  Scheme scheme = Scheme::kSymmetric;
  Rounding rounding = Rounding::kDeterministic;
  std::size_t group_size = 64;
  std::uint64_t seed = 0;  ///< Stochastic stream seed; ignored otherwise.
};

/// Result of a quantize_model fan-out.
struct QuantModelStats {
  std::vector<std::shared_ptr<const QTensor>> tensors;  ///< One per job.
  std::size_t layers_quantized = 0;  ///< Jobs that computed fresh.
  std::size_t layers_reused = 0;     ///< Jobs served from cache.
};

/// Process-wide quantized-layer cache.  All methods are thread-safe.
class QuantCache {
 public:
  explicit QuantCache(std::size_t max_entries = 1u << 12);

  /// The shared instance every production call site uses.
  static QuantCache& global();

  /// Return the packed quantization of `w`, computing it on a miss.  The
  /// QTensor is built without the construction-MSE pass (callers of the
  /// cache feed matmuls, not indicator studies); codes and params are
  /// bit-identical to a direct QTensor construction.  For stochastic
  /// rounding the rng stream is recreated from `seed`, so a cached result
  /// equals a fresh QTensor fed by Rng(seed).  Sets `*computed` (when
  /// non-null) to whether this call did the work.
  std::shared_ptr<const QTensor> get_or_quantize(const sq::tensor::Tensor& w,
                                                 Bitwidth bits, Scheme scheme,
                                                 Rounding rounding,
                                                 std::size_t group_size,
                                                 std::uint64_t seed = 0,
                                                 bool* computed = nullptr);

  /// Quantize a whole model: fan the jobs out under the kernel thread
  /// budget (sq::tensor::kernel_threads; SQ_THREADS) and return the
  /// per-job tensors plus hit/compute counts.  Runs inline when
  /// single-threaded or already on a pool worker.
  QuantModelStats quantize_model(std::span<const QuantJob> jobs);

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  std::size_t size() const { return cache_.size(); }
  void clear() { cache_.clear(); }

 private:
  sq::common::MemoCache<QuantKey, std::shared_ptr<const QTensor>, QuantKeyHash>
      cache_;
};

}  // namespace sq::quant
