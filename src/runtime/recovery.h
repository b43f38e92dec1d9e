// Fault recovery and plan switching: the knobs of OfflineEngine's
// recovery protocol and the one plan-switch step every serving engine
// runs when its devices change.
//
// Recovery protocol (OfflineEngine::serve / serve_continuous with
// RecoveryOptions), for the paper's production setting of shared
// heterogeneous fleets where devices fail, throttle and straggle mid-batch:
//
//   * Checkpointing.  Progress is tracked at wave granularity: a completed
//     wave's requests (and their KV/layer state, which the simulator
//     accounts per stage) are never re-executed; an aborted wave re-runs
//     its requests from scratch, so no request is ever lost.
//   * Transient faults retry with backoff: the engine waits out the
//     failure window (plus a configurable backoff) and re-runs the wave,
//     up to `max_retries` times.
//   * Permanent faults trigger plan repair through switch_plan: the
//     degraded cluster (failed devices excluded, sustained stragglers
//     re-rated) is handed to a Replanner callback, which re-runs the
//     planner search.  Repair is incremental — stage times of unchanged
//     devices hit the shared memoized caches of the simulator and cost
//     model.  The repaired plan serves the remaining workload; subsequent
//     fault events are translated through the degraded cluster's index map.
//   * Graceful degradation: when no feasible plan exists under the
//     original constraints, the Replanner is re-invoked with an escalating
//     `attempt` number (the core-side factory relaxes the quality budget,
//     then falls back to the most robust uniform plan); micro-batch caps
//     relax automatically because the scheduler re-derives them on the
//     degraded cluster.
//
// Everything stays bit-deterministic for a fixed seed and thread count:
// the serving clock is simulated, the replanning *charge* is a fixed
// configured penalty (real planner wall time is recorded separately, for
// observability only), and the planner itself picks identical plans at
// every thread count.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "runtime/weight_prep.h"
#include "sim/faults.h"
#include "sim/plan.h"

namespace sq::runtime {

/// Result of one plan-repair attempt.
struct ReplanOutcome {
  bool feasible = false;
  std::string failure;             ///< Reason when infeasible.
  sq::sim::ExecutionPlan plan;     ///< Plan over the DEGRADED cluster.
  double solve_seconds = 0.0;      ///< Real planner wall time (obs only).
};

/// Plan-repair callback: produce a plan for the degraded cluster.
/// `attempt` escalates from 0 when the previous attempt was infeasible
/// (0 = original constraints, 1 = relaxed quality budget, 2 = most robust
/// fallback); see sq::core::make_replanner.
using Replanner =
    std::function<ReplanOutcome(const sq::hw::Cluster& degraded, int attempt)>;

/// Recovery knobs.
struct RecoveryOptions {
  const sq::sim::FaultSchedule* faults = nullptr;  ///< Null = fault-free.
  Replanner replan;            ///< Null = no-repair baseline: a permanent
                               ///< failure loses the remaining workload.
  int max_retries = 3;         ///< Wave re-runs per transient fault.
  double backoff_s = 0.25;     ///< Simulated wait after a transient window.
  int max_replan_attempts = 3; ///< Escalation ladder length.
  /// Simulated seconds charged per repair (stands in for plan distribution
  /// and weight re-sharding; a fixed charge keeps the timeline
  /// deterministic regardless of real planner wall time).
  double replan_penalty_s = 2.0;
};

/// One replica group of a sharded deployment: a disjoint sub-cluster of
/// the fleet with its own execution plan.  It is also the serving state a
/// plan switch replaces.
struct ReplicaGroup {
  sq::hw::Cluster cluster;        ///< The group's sub-cluster.
  /// Group-local flat device index -> fleet flat index.  Identity when
  /// empty; used to translate fleet-level fault schedules and to label
  /// events with fleet device ids.
  std::vector<int> to_original;
  sq::sim::ExecutionPlan plan;    ///< Addresses `cluster`.
  /// Planner-predicted serving rate (output tokens / s); the LPT
  /// assignment's speed weight.  0 = treat all groups as equally fast.
  double predicted_tok_s = 0.0;
};

/// One rung of the re-planning ladder: a plan for `changed` at escalation
/// `attempt`, or nullopt when this attempt found none.  Callers count
/// attempts and keep planner diagnostics inside the callback.
using PlanAttempt = std::function<std::optional<sq::sim::ExecutionPlan>(
    const sq::hw::Cluster& changed, int attempt)>;

/// Climb the ladder: attempts 0 .. max(1, max_attempts) - 1 until one
/// yields a plan.
std::optional<sq::sim::ExecutionPlan> climb_ladder(const PlanAttempt& attempt,
                                                   const sq::hw::Cluster& changed,
                                                   int max_attempts);

/// Outcome of switch_plan.
struct PlanSwitch {
  bool ok = false;
  /// Why the cluster could not shrink (every device excluded).  Empty when
  /// the shrink worked but no ladder attempt produced a plan.
  std::string failure;
  /// The group serving continues on: changed cluster, index map chained
  /// through `from.to_original`, new plan; predicted_tok_s is `from`'s.
  ReplicaGroup next;
  std::vector<int> from_index;  ///< `from` flat index -> next, -1 = excluded.
  /// Events of the input schedule the changed cluster does not already
  /// account for, still in `from` indices: failures of excluded devices
  /// and permanent slowdowns baked into the specs are dropped.
  sq::sim::FaultSchedule faults;
};

/// The plan-switch step shared by fault repair, fleet repair folding and
/// elastic membership changes:
///   1. exclude `exclude` (flat indices of from.cluster) and bake every
///      permanent slowdown of `faults` (same indices; may be null) into the
///      surviving devices' specs (hw::degrade_cluster);
///   2. climb the ladder on the changed cluster;
///   3. chain the index maps;
///   4. when `generation` > 0, stamp it as the plan's repair_generation
///      and `exclude` (sorted) as its excluded_devices;
///   5. re-prepare only the layers whose bits changed (`prep` may be null);
///   6. keep the fault events that still apply.
PlanSwitch switch_plan(const ReplicaGroup& from, const std::vector<int>& exclude,
                       const sq::sim::FaultSchedule* faults,
                       const PlanAttempt& attempt, int max_attempts,
                       int generation = 0, const WeightPrep* prep = nullptr);

}  // namespace sq::runtime
