#include "quant/quant_cache.h"

#include <atomic>
#include <chrono>
#include <cstring>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace sq::quant {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

std::size_t QuantKeyHash::operator()(const QuantKey& k) const {
  using sq::common::hash_mix;
  std::uint64_t h = hash_mix(0, k.weight_fp);
  h = hash_mix(h, static_cast<std::uint64_t>(bits(k.bits)));
  h = hash_mix(h, static_cast<std::uint64_t>(k.scheme));
  h = hash_mix(h, static_cast<std::uint64_t>(k.rounding));
  h = hash_mix(h, static_cast<std::uint64_t>(k.group_size));
  h = hash_mix(h, k.seed);
  return static_cast<std::size_t>(h);
}

std::uint64_t weight_fingerprint(const sq::tensor::Tensor& w) {
  using sq::common::hash_mix;
  const auto flat = w.data();
  const auto* bytes = reinterpret_cast<const unsigned char*>(flat.data());
  const std::size_t n_bytes = flat.size() * sizeof(float);
  // Hashing runs on every cache lookup, so it must cost far less than the
  // quantization it deduplicates.  Four independent multiply-xor lanes keep
  // the 64-bit multiplies pipelined (one splitmix64 finalizer per word
  // would be ~6x slower and showed up as the dominant cost of a cache-hit
  // path); the lanes and the length are folded through hash_mix at the end
  // for finalization-quality dispersion.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;  // 2^64 / phi.
  std::uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                           0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  std::size_t i = 0;
  for (; i + 32 <= n_bytes; i += 32) {
    std::uint64_t word[4];
    std::memcpy(word, bytes + i, 32);
    for (int l = 0; l < 4; ++l) {
      lane[l] = (lane[l] ^ word[l]) * kMul;
      lane[l] ^= lane[l] >> 29;
    }
  }
  for (; i + 8 <= n_bytes; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    lane[0] = (lane[0] ^ word) * kMul;
    lane[0] ^= lane[0] >> 29;
  }
  if (i < n_bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, n_bytes - i);
    lane[1] = (lane[1] ^ word) * kMul;
    lane[1] ^= lane[1] >> 29;
  }
  std::uint64_t h = hash_mix(0x5171c4c5ULL, w.rows());
  h = hash_mix(h, w.cols());
  for (const std::uint64_t l : lane) h = hash_mix(h, l);
  return h;
}

QuantCache::QuantCache(std::size_t max_entries) : cache_(max_entries) {}

QuantCache& QuantCache::global() {
  static QuantCache cache;
  return cache;
}

std::shared_ptr<const QTensor> QuantCache::get_or_quantize(
    const sq::tensor::Tensor& w, Bitwidth bits, Scheme scheme, Rounding rounding,
    std::size_t group_size, std::uint64_t seed, bool* computed) {
  QuantKey key;
  key.weight_fp = weight_fingerprint(w);
  key.bits = bits;
  key.scheme = scheme;
  key.rounding = rounding;
  key.group_size = group_size;
  key.seed = rounding == Rounding::kStochastic ? seed : 0;

  bool did_compute = false;
  auto result = cache_.get_or_compute(key, [&]() -> std::shared_ptr<const QTensor> {
    did_compute = true;
    const auto t0 = Clock::now();
    sq::tensor::Rng rng(key.seed);
    auto qt = std::make_shared<const QTensor>(
        w, bits, scheme, rounding, group_size,
        rounding == Rounding::kStochastic ? &rng : nullptr,
        /*compute_mse=*/false);
    if (sq::obs::enabled()) {
      sq::obs::counter("quant.layers_quantized").add();
      sq::obs::histogram("quant.quantize.time_us", sq::obs::BucketLayout::kTimeUs)
          .observe(elapsed_us(t0));
    }
    return qt;
  });
  if (sq::obs::enabled()) {
    sq::obs::counter(did_compute ? "quant.cache.misses" : "quant.cache.hits").add();
  }
  if (computed != nullptr) *computed = did_compute;
  return result;
}

QuantModelStats QuantCache::quantize_model(std::span<const QuantJob> jobs) {
  const auto t0 = Clock::now();
  QuantModelStats stats;
  stats.tensors.resize(jobs.size());
  std::atomic<std::size_t> quantized{0};
  sq::common::parallel_for(sq::tensor::kernel_threads(), jobs.size(), [&](std::size_t i) {
    const QuantJob& job = jobs[i];
    bool computed = false;
    stats.tensors[i] =
        get_or_quantize(*job.weights, job.bits, job.scheme, job.rounding,
                        job.group_size, job.seed, &computed);
    if (computed) quantized.fetch_add(1, std::memory_order_relaxed);
  });
  stats.layers_quantized = quantized.load(std::memory_order_relaxed);
  stats.layers_reused = jobs.size() - stats.layers_quantized;
  if (sq::obs::enabled()) {
    sq::obs::histogram("quant.prep.time_us", sq::obs::BucketLayout::kTimeUs)
        .observe(elapsed_us(t0));
    const std::uint64_t h = hits(), m = misses();
    if (h + m > 0) {
      sq::obs::gauge("quant.cache.hit_rate")
          .set(static_cast<double>(h) / static_cast<double>(h + m));
    }
  }
  return stats;
}

}  // namespace sq::quant
