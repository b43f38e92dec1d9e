// Blocked GEMM kernel layer.  See gemm.h for the determinism contract.
//
// Structure (BLIS-style): the driver tiles C into NC-wide column blocks and
// KC-deep panels, packs B panels once per (jc, pc) block, then fans MC-row
// bands of A out over the shared executor.  Each band packs its own A panel and
// runs the micro-kernel over MR x NR register tiles.  Micro-kernels
// accumulate *into C* so the per-element chain spans all KC blocks in
// ascending k order — the same chain the naive kernels run, which is what
// makes every configuration bit-identical.
//
// This translation unit must be compiled with -ffp-contract=off (enforced
// in CMakeLists.txt): contraction to FMA would change bits between ISA
// paths and against the naive reference.
#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <vector>

#include "common/spec_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

// Runtime multi-ISA dispatch: the micro-kernel is plain C++ (the compiler
// auto-vectorizes the j loops across independent accumulation chains); we
// compile it three times at different target ISAs and pick once at startup.
// Every path computes identical bits — wider vectors just retire more
// independent chains per cycle.
#if defined(__x86_64__) && defined(__GNUC__)
#define SQ_GEMM_MULTI_ISA 1
#if defined(__clang__)
#define SQ_TARGET_AVX2 __attribute__((target("avx2")))
#define SQ_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define SQ_TARGET_AVX2 __attribute__((target("avx2,prefer-vector-width=256")))
#define SQ_TARGET_AVX512 __attribute__((target("avx512f,prefer-vector-width=512")))
#endif
#else
#define SQ_GEMM_MULTI_ISA 0
#endif

namespace sq::tensor {

namespace {


// ---- Micro-kernels ------------------------------------------------------

/// Full MR x NR tile: load C, accumulate ascending k, store.  Each acc
/// element is one serial chain; the j loop is the auto-vectorized axis.
template <std::size_t MR, std::size_t NR>
__attribute__((always_inline)) inline void micro_full(std::size_t kc,
                                                      const float* ap,
                                                      const float* bp, float* c,
                                                      std::size_t ldc) {
  float acc[MR][NR];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t j = 0; j < NR; ++j) acc[r][j] = c[r * ldc + j];
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* bv = bp + kk * NR;
    const float* av = ap + kk * MR;
    for (std::size_t r = 0; r < MR; ++r) {
      const float arv = av[r];
      for (std::size_t j = 0; j < NR; ++j) acc[r][j] += arv * bv[j];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t j = 0; j < NR; ++j) c[r * ldc + j] = acc[r][j];
}

/// Partial tile at the m/n edges: same ascending-k chains, scalar form.
template <std::size_t MR, std::size_t NR>
__attribute__((always_inline)) inline void micro_edge(std::size_t mr,
                                                      std::size_t nr,
                                                      std::size_t kc,
                                                      const float* ap,
                                                      const float* bp, float* c,
                                                      std::size_t ldc) {
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) {
      float acc = c[r * ldc + j];
      for (std::size_t kk = 0; kk < kc; ++kk) acc += ap[kk * MR + r] * bp[kk * NR + j];
      c[r * ldc + j] = acc;
    }
  }
}

/// One [mc x nc] band of C updated from packed A panels (MR-row, k-major)
/// and packed B panels (NR-column, k-major).
template <std::size_t MR, std::size_t NR>
__attribute__((always_inline)) inline void band_impl(std::size_t mc,
                                                     std::size_t nc,
                                                     std::size_t kc,
                                                     const float* apk,
                                                     const float* bp, float* c,
                                                     std::size_t ldc) {
  const std::size_t mpan = (mc + MR - 1) / MR;
  const std::size_t npan = (nc + NR - 1) / NR;
  for (std::size_t p = 0; p < mpan; ++p) {
    const std::size_t i0 = p * MR;
    const std::size_t il = std::min(MR, mc - i0);
    for (std::size_t q = 0; q < npan; ++q) {
      const std::size_t j0 = q * NR;
      const std::size_t jl = std::min(NR, nc - j0);
      float* cc = c + i0 * ldc + j0;
      if (il == MR && jl == NR) {
        micro_full<MR, NR>(kc, apk + p * kc * MR, bp + q * kc * NR, cc, ldc);
      } else {
        micro_edge<MR, NR>(il, jl, kc, apk + p * kc * MR, bp + q * kc * NR, cc, ldc);
      }
    }
  }
}

using BandFn = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                        const float*, float*, std::size_t);

/// Baseline path (SSE2 on x86-64): 4x8 tile — 8 xmm accumulators.
void band_base(std::size_t mc, std::size_t nc, std::size_t kc, const float* apk,
               const float* bp, float* c, std::size_t ldc) {
  band_impl<4, 8>(mc, nc, kc, apk, bp, c, ldc);
}

#if SQ_GEMM_MULTI_ISA
/// AVX2: 8x32 tile — 8 rows of 4 ymm chains.
SQ_TARGET_AVX2 void band_avx2(std::size_t mc, std::size_t nc, std::size_t kc,
                              const float* apk, const float* bp, float* c,
                              std::size_t ldc) {
  band_impl<8, 32>(mc, nc, kc, apk, bp, c, ldc);
}

/// AVX-512: 8x64 tile — 8 rows of 4 zmm chains (32 zmm available).
SQ_TARGET_AVX512 void band_avx512(std::size_t mc, std::size_t nc,
                                  std::size_t kc, const float* apk,
                                  const float* bp, float* c, std::size_t ldc) {
  band_impl<8, 64>(mc, nc, kc, apk, bp, c, ldc);
}
#endif

/// Plain i-k-j matmul with the exact accumulation order of
/// ops.cpp matmul_naive.  Compiled per-ISA below so the j loop (independent
/// chains, so vector width cannot change results) runs at full width; this
/// is the small-shape path where the blocked kernels' packing overhead does
/// not amortize.
__attribute__((always_inline)) inline void ikj_impl(const float* a,
                                                    const float* b, float* c,
                                                    std::size_t m,
                                                    std::size_t k,
                                                    std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

using IkjFn = void (*)(const float*, const float*, float*, std::size_t,
                       std::size_t, std::size_t);

void ikj_base(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n) {
  ikj_impl(a, b, c, m, k, n);
}

#if SQ_GEMM_MULTI_ISA
SQ_TARGET_AVX2 void ikj_avx2(const float* a, const float* b, float* c,
                             std::size_t m, std::size_t k, std::size_t n) {
  ikj_impl(a, b, c, m, k, n);
}

SQ_TARGET_AVX512 void ikj_avx512(const float* a, const float* b, float* c,
                                 std::size_t m, std::size_t k, std::size_t n) {
  ikj_impl(a, b, c, m, k, n);
}
#endif

/// The dispatched micro-kernel configuration.  MR/NR are part of the pack
/// layout, so packers read them from here too.
struct KernelConfig {
  const char* name;
  std::size_t mr;
  std::size_t nr;
  BandFn band;
  IkjFn ikj;
};

KernelConfig pick_config() {
#if SQ_GEMM_MULTI_ISA
  if (__builtin_cpu_supports("avx512f")) {
    return {"avx512", 8, 64, band_avx512, ikj_avx512};
  }
  if (__builtin_cpu_supports("avx2")) return {"avx2", 8, 32, band_avx2, ikj_avx2};
#endif
  return {"base", 4, 8, band_base, ikj_base};
}

const KernelConfig& config() {
  static const KernelConfig cfg = pick_config();
  return cfg;
}

// ---- Kernel thread budget -----------------------------------------------

struct KernelThreads {
  std::mutex mu;
  int requested = -1;  ///< -1: not yet resolved (consult SQ_THREADS).
};

KernelThreads& kernel_threads_state() {
  static KernelThreads state;
  return state;
}

// ---- Packing ------------------------------------------------------------

/// Where packed B panels come from.  Exactly one member is active.
struct BSource {
  const float* rowmajor = nullptr;  ///< B is [k x n] with leading dim ld.
  const float* colmajor = nullptr;  ///< B^T source: B' is [n x k], ld = k.
  const BBlockFill* fill = nullptr;
  std::size_t ld = 0;
};

/// Pack one NR-column panel, k-major, zero-padding the column remainder.
/// Pure copies — safe to run concurrently across panels.
void pack_b_panel(const BSource& src, std::size_t pc, std::size_t kc,
                  std::size_t jc, std::size_t nc, std::size_t q, std::size_t nr,
                  float* dst) {
  const std::size_t j0 = q * nr;
  const std::size_t jl = std::min(nr, nc - j0);
  if (src.rowmajor != nullptr) {
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float* s = src.rowmajor + (pc + kk) * src.ld + jc + j0;
      float* d = dst + kk * nr;
      for (std::size_t j = 0; j < jl; ++j) d[j] = s[j];
      for (std::size_t j = jl; j < nr; ++j) d[j] = 0.0f;
    }
    return;
  }
  if (src.colmajor != nullptr) {
    // B^T(kk, j) = B'(j, kk): stream each source row into a packed column.
    for (std::size_t j = 0; j < jl; ++j) {
      const float* s = src.colmajor + (jc + j0 + j) * src.ld + pc;
      for (std::size_t kk = 0; kk < kc; ++kk) dst[kk * nr + j] = s[kk];
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
      for (std::size_t j = jl; j < nr; ++j) dst[kk * nr + j] = 0.0f;
    }
    return;
  }
  // Caller-provided block filler writes the panel interior directly (the
  // panel layout is row-major with leading dimension nr).
  (*src.fill)(pc, kc, jc + j0, jl, dst, nr);
  for (std::size_t kk = 0; kk < kc; ++kk) {
    for (std::size_t j = jl; j < nr; ++j) dst[kk * nr + j] = 0.0f;
  }
}

/// Pack an MR-row A band, k-major, zero-padding the row remainder.
void pack_a_band(const float* a, std::size_t lda, std::size_t ic,
                 std::size_t mc, std::size_t pc, std::size_t kc, std::size_t mr,
                 float* dst) {
  const std::size_t mpan = (mc + mr - 1) / mr;
  for (std::size_t p = 0; p < mpan; ++p) {
    const std::size_t i0 = p * mr;
    const std::size_t il = std::min(mr, mc - i0);
    float* d = dst + p * kc * mr;
    for (std::size_t r = 0; r < il; ++r) {
      const float* s = a + (ic + i0 + r) * lda + pc;
      for (std::size_t kk = 0; kk < kc; ++kk) d[kk * mr + r] = s[kk];
    }
    for (std::size_t r = il; r < mr; ++r) {
      for (std::size_t kk = 0; kk < kc; ++kk) d[kk * mr + r] = 0.0f;
    }
  }
}

// ---- Driver -------------------------------------------------------------

Tensor gemm_driver(const Tensor& a, std::size_t n, const BSource& src,
                   const GemmBlocking& blk) {
  const std::size_t m = a.rows(), k = a.cols();
  Tensor c(m, n);
  if (m == 0 || n == 0 || k == 0) return c;

  const KernelConfig& kcfg = config();
  const std::size_t mr = kcfg.mr, nr = kcfg.nr;
  const std::size_t mc_blk = std::max(blk.mc, mr);
  const std::size_t kc_blk = std::max<std::size_t>(blk.kc, 1);
  const std::size_t nc_blk = std::max(blk.nc, nr);

  // Nested in a pool task, parallel_for runs inline (identical results).
  const int threads = kernel_threads();

  const std::size_t nc_cap = std::min(nc_blk, ((n + nr - 1) / nr) * nr);
  std::vector<float> bp(std::min(kc_blk, k) * nc_cap);
  float* cd = c.data().data();
  const float* ad = a.data().data();

  for (std::size_t jc = 0; jc < n; jc += nc_blk) {
    const std::size_t nc = std::min(nc_blk, n - jc);
    const std::size_t npan = (nc + nr - 1) / nr;
    for (std::size_t pc = 0; pc < k; pc += kc_blk) {
      const std::size_t kc = std::min(kc_blk, k - pc);
      sq::common::parallel_for(threads, npan, [&](std::size_t q) {
        pack_b_panel(src, pc, kc, jc, nc, q, nr, bp.data() + q * kc * nr);
      });
      const std::size_t n_bands = (m + mc_blk - 1) / mc_blk;
      sq::common::parallel_for(threads, n_bands, [&](std::size_t band) {
        const std::size_t ic = band * mc_blk;
        const std::size_t mc = std::min(mc_blk, m - ic);
        static thread_local std::vector<float> apk;
        apk.resize(((mc + mr - 1) / mr) * mr * kc);
        pack_a_band(ad, k, ic, mc, pc, kc, mr, apk.data());
        kcfg.band(mc, nc, kc, apk.data(), bp.data(), cd + ic * n + jc, n);
      });
    }
  }
  return c;
}

/// Metrics + timing wrapper around one kernel invocation.  Zero-cost when
/// the registry is disabled (contract: recording never changes results).
template <typename F>
Tensor instrumented(const char* kind, std::size_t m, std::size_t k,
                    std::size_t n, F&& run) {
  if (!sq::obs::enabled()) return run();
  const auto t0 = std::chrono::steady_clock::now();
  Tensor c = run();
  const double us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  sq::obs::counter("tensor.gemm.calls").add();
  sq::obs::counter(std::string("tensor.gemm.") + kind + ".calls").add();
  sq::obs::counter("tensor.gemm.flops").add(static_cast<std::uint64_t>(flops));
  sq::obs::histogram("tensor.gemm.time_us", sq::obs::BucketLayout::kTimeUs)
      .observe(us);
  if (us > 0.0) sq::obs::gauge("tensor.gemm.gflops").set(flops / us / 1e3);
  return c;
}

}  // namespace

const char* kernel_isa() { return config().name; }

int kernel_threads() {
  KernelThreads& st = kernel_threads_state();
  const std::lock_guard<std::mutex> lk(st.mu);
  if (st.requested < 0) st.requested = sq::common::env_threads();
  return sq::common::resolve_threads(st.requested);
}

void set_kernel_threads(int n) {
  KernelThreads& st = kernel_threads_state();
  const std::lock_guard<std::mutex> lk(st.mu);
  st.requested = n < 0 ? 0 : n;
}

Tensor matmul_small(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows() && "matmul_small: inner dimensions must match");
  Tensor c(a.rows(), b.cols());
  config().ikj(a.data().data(), b.data().data(), c.data().data(), a.rows(),
               a.cols(), b.cols());
  return c;
}

Tensor matmul_blocked(const Tensor& a, const Tensor& b, const GemmBlocking& blk) {
  assert(a.cols() == b.rows() && "matmul_blocked: inner dimensions must match");
  BSource src;
  src.rowmajor = b.data().data();
  src.ld = b.cols();
  return instrumented("matmul", a.rows(), a.cols(), b.cols(),
                      [&] { return gemm_driver(a, b.cols(), src, blk); });
}

Tensor matmul_bt_blocked(const Tensor& a, const Tensor& b,
                         const GemmBlocking& blk) {
  assert(a.cols() == b.cols() && "matmul_bt_blocked: inner dimensions must match");
  BSource src;
  src.colmajor = b.data().data();
  src.ld = b.cols();
  return instrumented("matmul_bt", a.rows(), a.cols(), b.rows(),
                      [&] { return gemm_driver(a, b.rows(), src, blk); });
}

Tensor matmul_fill_b(const Tensor& a, std::size_t n, const BBlockFill& fill,
                     const GemmBlocking& blk) {
  BSource src;
  src.fill = &fill;
  return instrumented("fill_b", a.rows(), a.cols(), n,
                      [&] { return gemm_driver(a, n, src, blk); });
}

Tensor transpose_blocked(const Tensor& a) {
  constexpr std::size_t kTile = 64;
  Tensor t(a.cols(), a.rows());
  if (a.empty()) return t;
  const std::size_t rows = a.rows(), cols = a.cols();
  const float* src = a.data().data();
  float* dst = t.data().data();
  const int threads = kernel_threads();
  const std::size_t n_bands = (cols + kTile - 1) / kTile;
  // Each task owns a disjoint band of output rows; tiles keep both the
  // source reads and destination writes cache-resident.
  sq::common::parallel_for(threads, n_bands, [&](std::size_t band) {
    const std::size_t j0 = band * kTile;
    const std::size_t jl = std::min(kTile, cols - j0);
    for (std::size_t i0 = 0; i0 < rows; i0 += kTile) {
      const std::size_t il = std::min(kTile, rows - i0);
      for (std::size_t j = 0; j < jl; ++j) {
        for (std::size_t i = 0; i < il; ++i) {
          dst[(j0 + j) * rows + i0 + i] = src[(i0 + i) * cols + j0 + j];
        }
      }
    }
  });
  return t;
}

void gram_xtx(const Tensor& x, double coef, std::span<double> out) {
  const std::size_t d = x.cols();
  const std::size_t samples = x.rows();
  assert(out.size() == d * d && "gram_xtx: output must be d x d");
  if (d == 0) return;

  if (sq::obs::enabled()) sq::obs::counter("tensor.gram.calls").add();
  // Transposing first makes both operands of every dot product contiguous.
  const Tensor xt = transpose_blocked(x);
  const int threads = kernel_threads();
  sq::common::parallel_for(threads, d, [&](std::size_t i) {
    const auto xi = xt.row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      const auto xj = xt.row(j);
      double acc = 0.0;
      // Term-for-term the legacy GPTQ loop: (coef * xi) * xj, double
      // accumulation, samples in ascending order.
      for (std::size_t s = 0; s < samples; ++s) {
        acc += coef * static_cast<double>(xi[s]) * static_cast<double>(xj[s]);
      }
      out[i * d + j] = acc;
    }
  });
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i + 1; j < d; ++j) out[i * d + j] = out[j * d + i];
  }
}

}  // namespace sq::tensor
