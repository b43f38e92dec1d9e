// Plan repair: the core-side Replanner factory OfflineEngine's recovery
// loop invokes after a permanent device failure.
//
// Repair is just planning on the degraded cluster — the same assigner, the
// same memoized cost-model fits and stage-time caches (devices that did
// not change hit warm entries), run through a graceful-degradation ladder
// when the original constraints no longer admit a plan:
//
//   attempt 0:  full SplitQuant planning under the caller's PlannerConfig;
//   attempt 1:  quality budget relaxed (max_ppl_delta disabled) — trade
//               accuracy headroom for feasibility on the smaller cluster;
//   attempt 2+: the Uniform baseline planner — the most robust fallback
//               (even partition, one bitwidth lowered until the model fits).
//
// Derated straggler specs share their GpuType with the healthy devices, so
// the analytic search reuses the type-level latency fits; the planner's
// simulation-based validation stage (validate_top_k) re-ranks finalists
// against the derated specs, which is what corrects the ordering.
#pragma once

#include "core/planner.h"
#include "cost/latency_model.h"
#include "elastic/elastic_engine.h"
#include "model/llm.h"
#include "quality/quality_model.h"
#include "runtime/recovery.h"
#include "sim/plan.h"

namespace sq::core {

/// Build a Replanner over (model, workload, cfg).  `latency` and `quality`
/// are captured by reference and must outlive the returned callback;
/// `latency` is re-profiled on demand for the degraded cluster's types
/// (idempotent, so repeat repairs cost nothing).  The callback is safe to
/// invoke repeatedly and from a single thread at a time.
sq::runtime::Replanner make_replanner(const sq::model::LlmSpec& model,
                                      sq::cost::LatencyCostModel& latency,
                                      const sq::quality::QualityModel& quality,
                                      const sq::sim::BatchWorkload& workload,
                                      const PlannerConfig& cfg);

/// Build an ElasticReplanner for membership changes: the same incremental
/// planning + graceful-degradation ladder as make_replanner (memoized
/// latency fits re-profile idempotently when joins introduce NEW device
/// types), but it also surfaces the planner's throughput estimate — the
/// autoscaler's accept/reject signal.  Lifetime contract matches
/// make_replanner.
sq::elastic::ElasticReplanner make_elastic_replanner(
    const sq::model::LlmSpec& model, sq::cost::LatencyCostModel& latency,
    const sq::quality::QualityModel& quality,
    const sq::sim::BatchWorkload& workload, const PlannerConfig& cfg);

}  // namespace sq::core
