// Offline serving engine (paper Fig. 6, "Distributed Execution").
//
// Executes an execution plan over a stream of offline batches: the master
// engine embeds tokens and converts logits, stage workers run their layer
// ranges, and the scheduler adapts micro-batching per batch.  Execution is
// simulated (sq::sim::simulate_batch is the "GPU"), but all the serving
// logic — batching, concurrency capping via the paged KV allocator,
// per-batch padding, throughput accounting — is real and is what the
// end-to-end benchmarks (Figs. 9/10, Table IV) measure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "model/llm.h"
#include "runtime/recovery.h"
#include "runtime/request_scheduler.h"
#include "runtime/weight_prep.h"
#include "sim/pipeline.h"
#include "sim/plan.h"
#include "workload/profile.h"

namespace sq::runtime {

/// Backend flavor (paper Sec. V).
enum class Backend {
  kVllmStyle,  ///< Optimized engine: chunked prefill, full kernel set.
  kCustom,     ///< PyTorch-native fallback for legacy GPUs: supports 3-bit,
               ///< pays an efficiency discount.
};

/// Aggregate results of serving a workload.
struct ServeStats {
  bool feasible = true;          ///< False: weights never fit (hard OOM).
  std::string failure;           ///< Reason when not feasible.
  std::uint64_t batches = 0;     ///< Batches executed.
  std::uint64_t waves = 0;       ///< Serving waves (>= batches when capped).
  double total_seconds = 0.0;    ///< Simulated wall time.
  double output_tokens = 0.0;    ///< Tokens generated.
  double throughput_tok_s = 0.0; ///< Output tokens per second.
  double mean_bubble = 0.0;      ///< Mean pipeline idle fraction.
  std::uint64_t capped_batches = 0;  ///< Batches that needed concurrency caps.
};

/// Aggregate results of fault-tolerant serving.
struct RecoveryStats {
  /// Aggregates over COMPLETED work only (same semantics as the fault-free
  /// OfflineEngine::serve); `serve.total_seconds` counts productive
  /// simulated time, excluding lost/backoff/replan windows.
  ServeStats serve;
  std::uint64_t faults_hit = 0;          ///< Aborts observed (incl. retries).
  std::uint64_t retries = 0;             ///< Transient-fault wave re-runs.
  std::uint64_t repairs_attempted = 0;   ///< Replanner invocations.
  std::uint64_t repairs_succeeded = 0;   ///< Repairs that produced a plan.
  int final_generation = 0;              ///< Plan generation serving ended on.
  std::uint64_t lost_requests = 0;       ///< Requests never completed
                                         ///< (no-repair baseline only).
  double lost_us = 0.0;      ///< Simulated work discarded by aborts.
  double backoff_us = 0.0;   ///< Simulated waiting on transient recovery.
  double replan_us = 0.0;    ///< Simulated replanning charge.
  double replan_wall_s = 0.0;  ///< Real planner wall time (NOT
                               ///< deterministic; excluded from bit-compares).
  /// Output tokens over the full wall clock including lost, backoff and
  /// replanning windows — the recovery-aware throughput the fault bench
  /// gates on.
  double goodput_tok_s = 0.0;
  /// Wall-clock seconds of the full timeline (productive + lost + backoff
  /// + replanning).
  double wall_seconds = 0.0;
  /// Deterministic human-readable fault/repair timeline ("[12.3s] fail
  /// dev2 ...", one entry per event); identical across thread counts.
  std::vector<std::string> events;
  /// The plan serving ended on: the bound plan when no repair happened,
  /// otherwise the last repaired plan (stage indices address the degraded
  /// cluster; repair_generation / excluded_devices carry the provenance).
  sq::sim::ExecutionPlan final_plan;
};

/// The engine: binds (cluster, model, plan, backend).  Every serve runs
/// the recovery protocol of runtime/recovery.h; the overloads without
/// RecoveryOptions serve fault-free.
class OfflineEngine {
 public:
  OfflineEngine(sq::hw::Cluster cluster, sq::model::LlmSpec model,
                sq::sim::ExecutionPlan plan, Backend backend = Backend::kVllmStyle,
                sq::sim::KernelModelOptions kernel = {.ground_truth = true,
                                                      .seed = 11});

  /// Serve a list of padded batches; returns aggregate statistics.
  ServeStats serve(const std::vector<sq::sim::BatchWorkload>& batches) const;

  /// Serve the batches under the fault schedule in `opts`.  With a null
  /// schedule the result's `serve` equals serve(batches) bit for bit (and
  /// goodput == throughput).
  RecoveryStats serve(const std::vector<sq::sim::BatchWorkload>& batches,
                      const RecoveryOptions& opts) const;

  /// Convenience: batch raw requests (sorted, padded, filtered to the
  /// model's context limit) and serve them.
  ServeStats serve_requests(const std::vector<sq::workload::Request>& requests,
                            std::uint64_t batch_size,
                            std::uint64_t chunk_tokens = 2048) const;

  /// serve_requests under the fault schedule in `opts`.
  RecoveryStats serve_requests(const std::vector<sq::workload::Request>& requests,
                               std::uint64_t batch_size,
                               const RecoveryOptions& opts,
                               std::uint64_t chunk_tokens = 2048) const;

  /// Continuous-batching mode: serve an arrival timeline through the
  /// iteration-level RequestScheduler instead of whole-batch waves, every
  /// request to completion or loss.  Observability and backend efficiency
  /// carry over from the engine; `opts` is handled as in the overload
  /// below.
  RequestStats serve_continuous(
      const std::vector<sq::workload::TimedRequest>& arrivals,
      const ContinuousOptions& opts = {}) const;

  /// Continuous-batching mode under faults: when a permanent failure stops
  /// the scheduler, repair the plan (switch_plan over the replanner
  /// ladder, exactly as `serve`), charge `opts.replan_penalty_s` on the
  /// serving clock, and resume the still-incomplete requests on the
  /// repaired plan.  The fault schedule speaks ORIGINAL device indices and
  /// absolute times on the serving clock.  Serving starts at
  /// `copts.start_us`; the stop horizon, resume progress, fault view and
  /// index map (`stop_us`, `resume`, `faults`, `to_original`) are managed
  /// by the engine; the other knobs (threads, chunking, max_running) pass
  /// through.  The merged RequestStats carries repair provenance
  /// (repairs_attempted/succeeded, final_generation, final_plan) and stays
  /// bit-identical across thread counts.  With no repair possible the
  /// remaining requests are lost, mirroring the no-repair baseline of
  /// `serve`.
  RequestStats serve_continuous(
      const std::vector<sq::workload::TimedRequest>& arrivals,
      const RecoveryOptions& opts, const ContinuousOptions& copts = {}) const;

  /// Record serving metrics and simulated-clock trace spans into the
  /// global obs registry during serve (micro-batch sizes chosen,
  /// concurrency-cap events, KV occupancy high-water marks, per-stage
  /// spans per wave; fault/repair counters and recovery spans when a fault
  /// schedule is set).  Off by default; recording never changes the stats
  /// — it only observes them.  The planner's parallel validation engines
  /// leave this off, so the ordered trace is only ever produced by
  /// sequential serve loops.
  void set_observe(bool on) { observe_ = on; }

  /// Attach a weight-preparation hook: when set, every serve first
  /// quantizes the plan's per-layer bitwidths into the process-wide
  /// QuantCache (parallel fan-out, deduplicated across engines); after a
  /// plan repair only layers whose assigned bits CHANGED are re-quantized.
  /// Purely a warm-up — serving results are bit-identical with or without it.
  void set_weight_prep(std::shared_ptr<const WeightPrep> prep) {
    prep_ = std::move(prep);
  }

  /// Backend efficiency factor in effect.
  double backend_efficiency() const;

 private:
  sq::hw::Cluster cluster_;
  sq::model::LlmSpec model_;
  sq::sim::ExecutionPlan plan_;
  Backend backend_;
  sq::sim::KernelModelOptions kernel_;
  bool observe_ = false;
  std::shared_ptr<const WeightPrep> prep_;  ///< Optional; see set_weight_prep.
};

}  // namespace sq::runtime
